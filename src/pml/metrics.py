"""Counting metrics and the synthetic benchmark harness.

``evaluate`` reduces each map to its total count and reports the mean
absolute error and the root-mean-square error of the counts. The RMS value
is reported under the conventional name MSE used by counting benchmarks.

The benchmark harness trains the small conv regressor on deterministic scene
streams and compares loss variants. All cell runs for a given (base seed,
repeat) share the model init and the scene stream; only the loss differs, so
ablation differences are attributable to the loss alone. Training scenes are
regenerated every epoch from an epoch-indexed seed instead of augmenting a
fixed set. A cell scores its test scenes as validation does, with
``predict_counts`` and the count reduction ``count_errors`` that ``evaluate`` uses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .loss import _check_n
from .pyramid import DensityMap
from .rng import derive_seed
from .synth import (Scene, SceneConfig, TinyModel, TrainResult, count_errors, generate_scene,
                    predict_counts, train)

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
    return _summary(np.array([p.total() for p in preds]), np.array([g.total() for g in gts]))


def _summary(est: np.ndarray, true: np.ndarray) -> MetricsSummary:
    mae, mse = count_errors(est, true)
    return MetricsSummary(mae, mse, tuple(zip(est.tolist(), true.tolist())))


@dataclass(frozen=True)
class BenchmarkConfig:
    """The benchmark's training set-up, each default and range rule stated only here.

    Grids are 64x64. Scenes follow ``SceneConfig``'s defaults at the prediction level,
    the model ``TinyModel.initialize``'s, and the loss guard is ``loss.DEFAULT_EPSILON``.
    Construction and ``dataclasses.replace`` reject a set-up that cannot train.
    """

    level: int = 6
    channels: int = 6
    n: int = 4
    steps: int = 2000
    lr: float = 1e-3
    clip_norm: float = 10.0
    batch: int = 2
    scenes_per_epoch: int = 32
    val_count: int = 32
    test_count: int = 200
    val_every: int = 200

    def __post_init__(self):
        for name, low in (("steps", 1), ("channels", 1), ("batch", 1), ("scenes_per_epoch", 1),
                          ("test_count", 1), ("val_count", 0), ("val_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr", "clip_norm"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        _check_n(self.n, self.level)

    def scene_config(self, seed: int) -> SceneConfig:
        return SceneConfig(seed=seed, obs_level=self.level)

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.scenes_per_epoch // self.batch)

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
    functions of their config, so this identifies the stream).

    Each line is ``json.dumps(config.__dict__, sort_keys=True)``. Only the
    seed varies and "seed" sorts last, so the lines share one head.
    """
    stream_seed = derive_seed(base_seed, _TRAIN)
    fields = dict(cfg.scene_config(0).__dict__)
    del fields["seed"]
    head = json.dumps(fields, sort_keys=True)[:-1] + ', "seed": '
    lines = [f"{head}{derive_seed(stream_seed, epoch, i)}}}"
             for epoch in range(cfg.epochs) for i in range(cfg.scenes_per_epoch)]
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
) -> BenchmarkRun:
    """Train one model with one loss on the shared stream and score test MAE."""
    model = TinyModel.initialize(cfg.level, cfg.channels, seed=derive_seed(base_seed, _MODEL))
    result = train(model, train_stream(cfg, base_seed), cfg, loss_kind=loss_kind,
                   seed=derive_seed(base_seed, _TRAIN), with_regularizer=with_regularizer,
                   val_scenes=_fixed_scenes(cfg, base_seed, _VAL, cfg.val_count))
    test = _fixed_scenes(cfg, base_seed, _TEST, cfg.test_count)
    true = np.array([s.gt_map.total() for s in test])
    return BenchmarkRun(
        loss_kind=loss_kind,
        with_regularizer=with_regularizer,
        n=cfg.n,
        base_seed=base_seed,
        metrics=_summary(predict_counts(result.model, test), true),
        stream_hash=stream_manifest_hash(cfg, base_seed),
        result=result,
    )


def compare_pml_vs_l2(base_seeds: Sequence[int], cfg: BenchmarkConfig = BenchmarkConfig()):
    """Per-seed test MAE of the regularized multi-resolution loss vs plain L2."""
    rows = []
    for s in base_seeds:
        pml_run = run_benchmark_cell(cfg, s, "pml")
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
    repeats: int = 1,
    cfg: BenchmarkConfig = BenchmarkConfig(),
) -> AblationTable:
    """Sweep n, each with the regularizer on then off, on identical per-repeat streams."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cfgs = [replace(cfg, n=n) for n in n_values]  # every n is checked before any training
    rows = []
    for repeat in range(repeats):
        seed = derive_seed(base_seed, repeat)
        for cell_cfg in cfgs:
            for reg in (True, False):
                run = run_benchmark_cell(cell_cfg, seed, "pml", with_regularizer=reg)
                rows.append(
                    AblationRow(
                        n=cell_cfg.n,
                        with_regularizer=reg,
                        repeat=repeat,
                        mae=run.metrics.mae,
                        mse=run.metrics.mse,
                        stream_hash=run.stream_hash,
                    )
                )
    return AblationTable(rows=tuple(rows))
