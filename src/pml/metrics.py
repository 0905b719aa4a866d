"""Counting metrics and the synthetic benchmark harness.

``evaluate`` reduces each map to its total count and reports the mean
absolute error and the root-mean-square error of the counts. The RMS value
is reported under the conventional name MSE used by counting benchmarks.

The benchmark harness trains the small conv regressor on deterministic scene
streams and compares the losses of ``synth.LOSS_KINDS``: "pml", the pml total
with its full-resolution L2 term, "pml_noreg" without it, and "l2", that term
alone. Every cell is one ``BenchmarkRun``, also
inside the sweeps: ``compare_pml_vs_l2`` returns a (pml, l2) pair of runs per
seed and ``ablation_run`` a list of runs per repeat, and the CLI formats their
tables from the runs. All cell runs for a given (base seed, repeat) share the
model init and the scene stream; only the loss differs, so ablation
differences are attributable to the loss alone. Training scenes are
regenerated every epoch from an epoch-indexed seed instead of augmenting a
fixed set. This module holds every seed of a cell and hands ``synth.train``
arrays: ``_epoch_seeds`` is the one training seed schedule and ``_set_seeds``
gives the validation and test seeds. ``_scene_stacks`` fills the
(observations, ground truths) stacks of a list of seeds one scene at a time,
and every scene of a cell is generated through it. ``train_batches`` shuffles
each epoch's seeds and fills each step's stacks from that step's seeds when the
step is drawn, and ``stream_manifest`` writes the seeds' configs, so the
manifest hash names the scenes that were trained on; the hash is fed one epoch
of lines at a time. A cell keeps one step's training stacks alive, the
validation observations and true counts, and, while it scores, one
``synth.SCORING_BATCH`` of test scenes, scored with ``predict_counts`` and the
count reduction ``count_errors`` that ``evaluate`` uses. ``tracemalloc``'s peak
over a default cell is 4.5 MiB.
The training set-up, ``BenchmarkConfig``, comes from ``synth``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .pyramid import DensityMap, _checked_int
from .rng import SplitMix64, derive_seed
from .synth import (SCORING_BATCH, BenchmarkConfig, TinyModel, TrainResult, Workspace,
                    count_errors, generate_scene, predict_counts, train)

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

    Epoch ``e`` shuffles the seeds of ``_epoch_seeds(cfg, base_seed, e)`` with a
    Fisher-Yates stream of its own and yields them ``cfg.batch`` scenes at a time; its
    last batch may be short. Each step's stacks are filled from its own seeds when it
    is drawn, so the stream holds no epoch of stacks, only the batch it is filling
    while the consumer holds the last one. It depends only on (config, base seed).
    """
    stream_seed = derive_seed(base_seed, _TRAIN)
    for epoch in itertools.count():
        seeds = _epoch_seeds(cfg, base_seed, epoch)
        rng = SplitMix64(derive_seed(stream_seed, epoch))
        for i in range(len(seeds) - 1, 0, -1):
            j = rng.randint(0, i)
            seeds[i], seeds[j] = seeds[j], seeds[i]
        for start in range(0, len(seeds), cfg.batch):
            yield _scene_stacks(cfg, seeds[start:start + cfg.batch])


def _manifest_epochs(cfg: BenchmarkConfig, base_seed: int) -> Iterator[str]:
    """The manifest's text one training epoch at a time, each line ending in a newline.

    Each line is ``json.dumps(config.__dict__, sort_keys=True)``. Only the
    seed varies and "seed" sorts last, so the lines share one head.
    """
    fields = dict(cfg.scene_config(0).__dict__)
    del fields["seed"]
    head = json.dumps(fields, sort_keys=True)[:-1] + ', "seed": '
    for epoch in range(cfg.epochs):
        yield "".join(f"{head}{s}}}\n" for s in _epoch_seeds(cfg, base_seed, epoch))


def stream_manifest(cfg: BenchmarkConfig, base_seed: int) -> str:
    """One JSON line per planned training scene config (scenes are pure
    functions of their config, so this identifies the stream)."""
    return "".join(_manifest_epochs(cfg, base_seed))


def stream_manifest_hash(cfg: BenchmarkConfig, base_seed: int) -> str:
    """sha256 of ``stream_manifest``, fed one epoch of lines at a time."""
    digest = hashlib.sha256()
    for text in _manifest_epochs(cfg, base_seed):
        digest.update(text.encode())
    return digest.hexdigest()


def _set_seeds(base_seed: int, tag: int, count: int) -> list[int]:
    """The scene seeds of the validation (``_VAL``) or test (``_TEST``) set."""
    seed = derive_seed(base_seed, tag)
    return [derive_seed(seed, i) for i in range(count)]


def _scene_stacks(cfg: BenchmarkConfig, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (observations, ground truths) stacks of the scenes of ``seeds``, in their order.

    The stacks are filled one scene at a time, and each scene is dropped once its rows
    are written, before the next is generated.
    """
    side = 1 << cfg.level
    observations, gts = np.empty((len(seeds), side, side)), np.empty((len(seeds), side, side))
    for i, seed in enumerate(seeds):
        scene = generate_scene(cfg.scene_config(seed))
        observations[i], gts[i] = scene.observation, scene.gt_map.data
        del scene
    return observations, gts


@dataclass(frozen=True)
class BenchmarkRun:
    loss_kind: str
    # loss_kind != "pml_noreg", read by nothing: perfbench's tests build runs
    # positionally with this field second, so it stays until they name their fields
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
) -> BenchmarkRun:
    """Train one model with one loss on the shared stream and score test MAE.

    ``loss_kind`` is one of ``synth.LOSS_KINDS``: "pml" (the pml total with its
    full-resolution L2 term), "pml_noreg" (without it) or "l2" (that term alone).
    The test set is drawn and scored ``SCORING_BATCH`` scenes at a time through one
    ``Workspace``, so its memory does not grow with ``test_count``.
    """
    base_seed = _checked_int("base_seed", base_seed)
    model = TinyModel.initialize(cfg.channels, seed=derive_seed(base_seed, _MODEL))
    val_obs, val_gts = _scene_stacks(cfg, _set_seeds(base_seed, _VAL, cfg.val_count))
    val = val_obs, val_gts.sum(axis=(1, 2))
    del val_gts  # validation reads the true counts alone
    result = train(model, train_batches(cfg, base_seed), cfg, loss_kind=loss_kind, val=val)
    test_seeds = _set_seeds(base_seed, _TEST, cfg.test_count)
    est, true = np.empty(cfg.test_count), np.empty(cfg.test_count)
    work = Workspace()
    for start in range(0, cfg.test_count, SCORING_BATCH):
        part = slice(start, start + SCORING_BATCH)
        obs, gts = _scene_stacks(cfg, test_seeds[part])
        est[part] = predict_counts(result.model, obs, work)
        true[part] = gts.sum(axis=(1, 2))
    return BenchmarkRun(
        loss_kind=loss_kind,
        with_regularizer=loss_kind != "pml_noreg",
        n=cfg.n,
        base_seed=base_seed,
        metrics=_summary(est, true),
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
    """Per repeat, the runs of the sweep over n, each "pml" then "pml_noreg".

    Repeat ``r`` trains every cell on base seed ``derive_seed(base_seed, r)``, so the
    cells of one repeat share the model init and the scene stream.
    """
    repeats = _checked_int("repeats", repeats, 1)
    cfgs = [replace(cfg, n=n) for n in n_values]  # every n is checked before any training
    return [
        [run_benchmark_cell(cell_cfg, derive_seed(base_seed, repeat), kind)
         for cell_cfg in cfgs for kind in ("pml", "pml_noreg")]
        for repeat in range(repeats)
    ]
