"""Counting metrics and the synthetic benchmark harness.

``evaluate`` reduces each map to its total count and reports the mean
absolute error and the root-mean-square error of the counts. The RMS value
is reported under the conventional name MSE used by counting benchmarks.

The benchmark harness trains the small conv regressor on deterministic scene
streams and compares loss variants. Every cell is one ``BenchmarkRun``, also
inside the sweeps: ``compare_pml_vs_l2`` returns a (pml, l2) pair of runs per
seed and ``ablation_run`` a list of runs per repeat, and the CLI formats their
tables from the runs. All cell runs for a given (base seed, repeat) share the
model init and the scene stream; only the loss differs, so ablation
differences are attributable to the loss alone. Training scenes are
regenerated every epoch from an epoch-indexed seed instead of augmenting a
fixed set. This module holds every seed of a cell and hands ``synth.train``
arrays: ``_epoch_seeds`` is the one training seed schedule, ``train_batches``
stacks each step's batch from those seeds' scenes in a per-epoch shuffled
order, and ``stream_manifest`` writes their configs, so the manifest hash
names the scenes that were trained on. ``_fixed_set`` gives the validation
and test sets as (observations, true counts), and a cell scores its test set
as validation does, with ``predict_counts`` and the count reduction
``count_errors`` that ``evaluate`` uses. The training set-up,
``BenchmarkConfig``, comes from ``synth``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .pyramid import DensityMap
from .rng import SplitMix64, derive_seed
from .synth import (BenchmarkConfig, TinyModel, TrainResult, count_errors, generate_scene,
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


def _epoch_seeds(cfg: BenchmarkConfig, base_seed: int, epoch: int) -> list[int]:
    """The scene seeds of one training epoch, read by the stream and its manifest alike."""
    stream_seed = derive_seed(base_seed, _TRAIN)
    return [derive_seed(stream_seed, epoch, i) for i in range(cfg.scenes_per_epoch)]


def train_batches(cfg: BenchmarkConfig,
                  base_seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each training step's stacked (observations, ground truths), epoch after epoch.

    Epoch ``e`` generates the scenes of ``_epoch_seeds(cfg, base_seed, e)``, shuffles
    them with a Fisher-Yates stream of its own and stacks them ``cfg.batch`` at a time;
    its last batch may be short. It depends only on (config, base seed).
    """
    stream_seed = derive_seed(base_seed, _TRAIN)
    for epoch in itertools.count():
        scenes = [generate_scene(cfg.scene_config(s)) for s in _epoch_seeds(cfg, base_seed, epoch)]
        rng = SplitMix64(derive_seed(stream_seed, epoch))
        for i in range(len(scenes) - 1, 0, -1):
            j = rng.randint(0, i)
            scenes[i], scenes[j] = scenes[j], scenes[i]
        for start in range(0, len(scenes), cfg.batch):
            group = scenes[start:start + cfg.batch]
            yield (np.stack([s.observation for s in group]),
                   np.stack([s.gt_map.data for s in group]))


def stream_manifest(cfg: BenchmarkConfig, base_seed: int) -> str:
    """One JSON line per planned training scene config (scenes are pure
    functions of their config, so this identifies the stream).

    Each line is ``json.dumps(config.__dict__, sort_keys=True)``. Only the
    seed varies and "seed" sorts last, so the lines share one head.
    """
    fields = dict(cfg.scene_config(0).__dict__)
    del fields["seed"]
    head = json.dumps(fields, sort_keys=True)[:-1] + ', "seed": '
    lines = [f"{head}{s}}}"
             for epoch in range(cfg.epochs) for s in _epoch_seeds(cfg, base_seed, epoch)]
    return "\n".join(lines) + "\n"


def stream_manifest_hash(cfg: BenchmarkConfig, base_seed: int) -> str:
    return hashlib.sha256(stream_manifest(cfg, base_seed).encode()).hexdigest()


def _fixed_set(cfg: BenchmarkConfig, base_seed: int, tag: int,
               count: int) -> tuple[np.ndarray, np.ndarray]:
    """A fixed scene set's (observations, true counts), filled in one scene at a time."""
    seed = derive_seed(base_seed, tag)
    side = 1 << cfg.level
    observations, counts = np.empty((count, side, side)), np.empty(count)
    for i in range(count):
        scene = generate_scene(cfg.scene_config(derive_seed(seed, i)))
        observations[i], counts[i] = scene.observation, scene.gt_map.total()
    return observations, counts


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
    model = TinyModel.initialize(cfg.channels, seed=derive_seed(base_seed, _MODEL))
    result = train(model, train_batches(cfg, base_seed), cfg, loss_kind=loss_kind,
                   with_regularizer=with_regularizer,
                   val=_fixed_set(cfg, base_seed, _VAL, cfg.val_count))
    test_obs, test_counts = _fixed_set(cfg, base_seed, _TEST, cfg.test_count)
    return BenchmarkRun(
        loss_kind=loss_kind,
        with_regularizer=with_regularizer,
        n=cfg.n,
        base_seed=base_seed,
        metrics=_summary(predict_counts(result.model, test_obs), test_counts),
        stream_hash=stream_manifest_hash(cfg, base_seed),
        result=result,
    )


def compare_pml_vs_l2(
    base_seeds: Sequence[int], cfg: BenchmarkConfig
) -> list[tuple[BenchmarkRun, BenchmarkRun]]:
    """Per seed, the (pml, l2) pair of runs: the regularized multi-resolution loss vs plain L2."""
    return [(run_benchmark_cell(cfg, s, "pml"), run_benchmark_cell(cfg, s, "l2"))
            for s in base_seeds]


def ablation_run(
    base_seed: int,
    n_values: Sequence[int],
    repeats: int,
    cfg: BenchmarkConfig,
) -> list[list[BenchmarkRun]]:
    """Per repeat, the runs of the sweep over n, each with the regularizer on then off.

    Repeat ``r`` trains every cell on base seed ``derive_seed(base_seed, r)``, so the
    cells of one repeat share the model init and the scene stream.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cfgs = [replace(cfg, n=n) for n in n_values]  # every n is checked before any training
    return [
        [run_benchmark_cell(cell_cfg, derive_seed(base_seed, repeat), "pml", with_regularizer=reg)
         for cell_cfg in cfgs for reg in (True, False)]
        for repeat in range(repeats)
    ]
