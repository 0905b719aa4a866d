"""Counting metrics and the synthetic benchmark harness.

``evaluate`` reduces each map to its total count and reports the mean
absolute error and the root-mean-square error of the counts. The RMS value
is reported under the conventional name MSE used by counting benchmarks.

The benchmark harness trains the small conv regressor on deterministic scene
streams and compares loss variants. All cell runs for a given (base seed,
repeat) share the model init and the scene stream; only the loss differs, so
ablation differences are attributable to the loss alone. Training scenes are
regenerated every epoch from an epoch-indexed seed instead of augmenting a
fixed set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .loss import DEFAULT_EPSILON
from .pyramid import DensityMap
from .rng import derive_seed
from .synth import Scene, SceneConfig, TinyModel, TrainResult, generate_scene, train

# sub-stream tags so the train/val/test/model streams never collide
_TRAIN, _VAL, _TEST, _MODEL = 1, 2, 3, 4


@dataclass(frozen=True)
class MetricsSummary:
    mae: float
    mse: float  # root-mean-square count error
    per_sample: tuple[tuple[float, float], ...]  # (estimated, true)


def evaluate(preds: Sequence[DensityMap], gts: Sequence[DensityMap]) -> MetricsSummary:
    """MAE and root-mean-square error of per-map total counts."""
    if len(preds) == 0:
        raise ValueError("batches must be non-empty")
    if len(preds) != len(gts):
        raise ValueError(f"batch sizes differ: {len(preds)} vs {len(gts)}")
    est = np.array([p.total() for p in preds])
    true = np.array([g.total() for g in gts])
    err = est - true
    return MetricsSummary(
        mae=float(np.mean(np.abs(err))),
        mse=float(np.sqrt(np.mean(err * err))),
        per_sample=tuple(zip(est.tolist(), true.tolist())),
    )


@dataclass(frozen=True)
class BenchmarkConfig:
    """Desk-scale defaults: 64x64 grids, the 1..16 resolution ladder (n=4).

    Scenes follow ``SceneConfig``'s defaults at the prediction level.
    """

    level: int = 6
    channels: int = 6
    n: int = 4
    steps: int = 2000
    lr: float = 1e-3
    clip_norm: float = 10.0
    batch: int = 2
    epsilon: float = DEFAULT_EPSILON
    output_bias: float = -4.26
    scenes_per_epoch: int = 32
    val_count: int = 32
    test_count: int = 200
    val_every: int = 200

    def scene_config(self, seed: int) -> SceneConfig:
        return SceneConfig(seed=seed, obs_level=self.level)

    @property
    def steps_per_epoch(self) -> int:
        return max(1, -(-self.scenes_per_epoch // self.batch))

    @property
    def epochs(self) -> int:
        return -(-self.steps // self.steps_per_epoch)


def train_stream(cfg: BenchmarkConfig, base_seed: int):
    """Epoch-indexed scene provider; depends only on (config, base seed)."""
    stream_seed = derive_seed(base_seed, _TRAIN)

    def provider(epoch: int) -> list[Scene]:
        return [
            generate_scene(cfg.scene_config(derive_seed(stream_seed, epoch, i)))
            for i in range(cfg.scenes_per_epoch)
        ]

    return provider


def stream_manifest(cfg: BenchmarkConfig, base_seed: int) -> str:
    """One JSON line per planned training scene config (scenes are pure
    functions of their config, so this identifies the stream)."""
    stream_seed = derive_seed(base_seed, _TRAIN)
    lines = []
    for epoch in range(cfg.epochs):
        for i in range(cfg.scenes_per_epoch):
            sc = cfg.scene_config(derive_seed(stream_seed, epoch, i))
            lines.append(json.dumps(sc.__dict__, sort_keys=True))
    return "\n".join(lines) + "\n"


def stream_manifest_hash(cfg: BenchmarkConfig, base_seed: int) -> str:
    return hashlib.sha256(stream_manifest(cfg, base_seed).encode()).hexdigest()


def _fixed_scenes(cfg: BenchmarkConfig, base_seed: int, tag: int, count: int) -> list[Scene]:
    seed = derive_seed(base_seed, tag)
    return [generate_scene(cfg.scene_config(derive_seed(seed, i))) for i in range(count)]


@dataclass(frozen=True)
class BenchmarkRun:
    loss_kind: str
    with_regularizer: bool
    n: int
    base_seed: int
    metrics: MetricsSummary
    stream_hash: str
    result: TrainResult


def run_benchmark_cell(
    cfg: BenchmarkConfig,
    base_seed: int,
    loss_kind: str,
    with_regularizer: bool = True,
    n: int | None = None,
) -> BenchmarkRun:
    """Train one model with one loss on the shared stream and score test MAE."""
    n = cfg.n if n is None else n
    model = TinyModel.initialize(
        cfg.level, cfg.channels, seed=derive_seed(base_seed, _MODEL), output_bias=cfg.output_bias
    )
    result = train(
        model,
        train_stream(cfg, base_seed),
        loss_kind=loss_kind,
        steps=cfg.steps,
        lr=cfg.lr,
        clip_norm=cfg.clip_norm,
        batch=cfg.batch,
        seed=derive_seed(base_seed, _TRAIN),
        n=n,
        epsilon=cfg.epsilon,
        with_regularizer=with_regularizer,
        val_scenes=_fixed_scenes(cfg, base_seed, _VAL, cfg.val_count),
        val_every=cfg.val_every,
    )
    test = _fixed_scenes(cfg, base_seed, _TEST, cfg.test_count)
    preds = [result.model.forward(s.observation) for s in test]
    gts = [s.gt_map for s in test]
    return BenchmarkRun(
        loss_kind=loss_kind,
        with_regularizer=with_regularizer,
        n=n,
        base_seed=base_seed,
        metrics=evaluate(preds, gts),
        stream_hash=stream_manifest_hash(cfg, base_seed),
        result=result,
    )


def compare_pml_vs_l2(base_seeds: Sequence[int], cfg: BenchmarkConfig = BenchmarkConfig()):
    """Per-seed test MAE of the regularized multi-resolution loss vs plain L2."""
    rows = []
    for s in base_seeds:
        pml_run = run_benchmark_cell(cfg, s, "pml", with_regularizer=True)
        l2_run = run_benchmark_cell(cfg, s, "l2")
        rows.append(
            {
                "seed": s,
                "mae_pml": pml_run.metrics.mae,
                "mse_pml": pml_run.metrics.mse,
                "mae_l2": l2_run.metrics.mae,
                "mse_l2": l2_run.metrics.mse,
            }
        )
    return rows


@dataclass(frozen=True)
class AblationRow:
    n: int
    with_regularizer: bool
    repeat: int
    mae: float
    mse: float
    stream_hash: str

    @property
    def cell(self) -> str:
        return f"n={self.n},reg={'on' if self.with_regularizer else 'off'}"


@dataclass(frozen=True)
class AblationTable:
    rows: tuple[AblationRow, ...]

    def to_csv(self) -> str:
        lines = ["cell,repeat,mae,mse"]
        for r in self.rows:
            lines.append(f"{r.cell},{r.repeat},{r.mae:.17g},{r.mse:.17g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict[str, tuple[float, float]]:
        """Cell -> (mean MAE, stddev MAE) over repeats."""
        by_cell: dict[str, list[float]] = {}
        for r in self.rows:
            by_cell.setdefault(r.cell, []).append(r.mae)
        return {
            cell: (float(np.mean(v)), float(np.std(v))) for cell, v in sorted(by_cell.items())
        }


def ablation_run(
    base_seed: int,
    n_values: Sequence[int],
    with_reg: Sequence[bool] = (True, False),
    repeats: int = 1,
    cfg: BenchmarkConfig = BenchmarkConfig(),
) -> AblationTable:
    """Sweep n and the regularizer flag on identical per-repeat streams."""
    if any(n < 0 or n > cfg.level for n in n_values):
        raise ValueError(f"n values must lie in [0, {cfg.level}], got {list(n_values)}")
    rows = []
    for repeat in range(repeats):
        seed = derive_seed(base_seed, repeat)
        for n in n_values:
            for reg in with_reg:
                run = run_benchmark_cell(cfg, seed, "pml", with_regularizer=reg, n=n)
                rows.append(
                    AblationRow(
                        n=n,
                        with_regularizer=reg,
                        repeat=repeat,
                        mae=run.metrics.mae,
                        mse=run.metrics.mse,
                        stream_hash=run.stream_hash,
                    )
                )
    return AblationTable(rows=tuple(rows))
