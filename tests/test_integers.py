"""Every count, level and seed of the library is an integer, and every other setting a
real number: one rule checks each kind.

A Python or numpy integer passes, as an ``int``; 2.0, 2.5, "2", None and True raise
``ValueError`` naming the argument. Before the rule, these inputs were truncated
(``derive_seed(2.5)`` and ``SplitMix64(2.5)`` seeded 2, so ``run_benchmark_cell(cfg, 2.5,
"pml")`` trained seed 2's cell and recorded 2.5), taken as 1 (``True``), or failed later
with a bare ``TypeError``.

A Python or numpy integer or float passes as a real setting, as a ``float``; a bool, a
string, None, a complex number, a ``Fraction`` and a ``Decimal`` raise ``ValueError``
naming the setting. Before the rule, True was taken as 1, a string or None failed with a
bare ``TypeError``, and ``likelihood_with_variances`` parsed a string variance.
"""

import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pml.dmapio import read_points_csv
from pml.likelihood import likelihood_with_variances, verify_theorem
from pml.loss import alpha_coefficients, l2_level, l_diff, l_diff_pair, total_loss
from pml.metrics import BenchmarkConfig, ablation_run, run_benchmark_cell
from pml.pyramid import (DensityMap, PointAnnotations, ResolutionSet, downsample_avg,
                         downsample_sum, rasterize, upsample_replicate)
from pml.rng import SplitMix64, derive_seed
from pml.synth import SceneConfig, TinyModel, generate_scene

CELL = BenchmarkConfig(level=3, channels=1, n=1, steps=1, batch=1, scenes_per_epoch=1,
                       val_count=0, test_count=1)
PREDS, GTS = np.ones((1, 4, 4)), np.zeros((1, 4, 4))
MAP = DensityMap(2, np.ones((4, 4)))
POINTS = PointAnnotations(np.array([[0.1, 0.2]]), 1.0)

# (argument name in the message, call with the value under test)
ENTRY_POINTS = {
    "SceneConfig.seed": ("seed", lambda v: SceneConfig(seed=v)),
    "SceneConfig.num_clusters": ("num_clusters", lambda v: SceneConfig(seed=0, num_clusters=v)),
    "SceneConfig.points_per_cluster": (
        "points_per_cluster", lambda v: SceneConfig(seed=0, points_per_cluster=(v, 24))),
    "SceneConfig.obs_level": ("obs_level", lambda v: SceneConfig(seed=0, obs_level=v)),
    "DensityMap": ("level", lambda v: DensityMap(v, np.zeros((4, 4)))),
    "rasterize": ("level", lambda v: rasterize(POINTS, v)),
    "loss.n": ("n", lambda v: total_loss(PREDS, GTS, v)),
    "l2_level": ("i", lambda v: l2_level(PREDS, GTS, v)),
    "l_diff_pair.j1": ("j1", lambda v: l_diff_pair(PREDS, GTS, v, 2)),
    "l_diff_pair.j2": ("j2", lambda v: l_diff_pair(PREDS, GTS, 0, v)),
    "l_diff": ("j", lambda v: l_diff(PREDS, GTS, v)),
    "downsample_sum": ("target_level", lambda v: downsample_sum(MAP, v)),
    "downsample_avg": ("target_level", lambda v: downsample_avg(MAP, v)),
    "upsample_replicate": ("target_level", lambda v: upsample_replicate(MAP, v)),
    "alpha_coefficients": ("n", alpha_coefficients),
    "ResolutionSet.dense.n": ("n", lambda v: ResolutionSet.dense(v, 6)),
    "ResolutionSet.dense.prediction_level": (
        "prediction_level", lambda v: ResolutionSet.dense(1, v)),
    "verify_theorem.trials": ("trials", lambda v: verify_theorem(v, 1, 4, 2)),
    "verify_theorem.seed": ("seed", lambda v: verify_theorem(1, v, 4, 2)),
    "verify_theorem.level": ("level", lambda v: verify_theorem(1, 1, v, 2)),
    "verify_theorem.n_k": ("n_k", lambda v: verify_theorem(1, 1, 4, v)),
    "verify_theorem.batch": ("batch", lambda v: verify_theorem(1, 1, 4, 2, v)),
    "ablation_run.repeats": ("repeats", lambda v: ablation_run(1, (), v, CELL)),
    "uniform_block": ("count", lambda v: SplitMix64(1).uniform_block(v)),
    "gaussian_block": ("count", lambda v: SplitMix64(1).gaussian_block(v)),
    "randint.low": ("low", lambda v: SplitMix64(1).randint(v, 3)),
    "randint.high": ("high", lambda v: SplitMix64(1).randint(0, v)),
    "derive_seed": ("word", derive_seed),
    "derive_seed.second_word": ("word", lambda v: derive_seed(1, v)),
    "SplitMix64": ("seed", SplitMix64),
    "run_benchmark_cell": ("base_seed", lambda v: run_benchmark_cell(CELL, v, "pml")),
    "TinyModel.initialize": ("channels", lambda v: TinyModel.initialize(v, 0)),
}


@pytest.mark.parametrize("value", [2.0, 2.5, "2", None, True])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integer_argument_rejected(entry, value):
    name, call = ENTRY_POINTS[entry]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_numpy_integers_are_stored_as_ints():
    scene = SceneConfig(seed=np.uint64(7), num_clusters=np.int8(2),
                        points_per_cluster=(np.int16(1), np.int64(3)), obs_level=np.uint8(4))
    assert scene == SceneConfig(seed=7, num_clusters=2, points_per_cluster=(1, 3), obs_level=4)
    assert all(type(v) is int for v in (scene.seed, scene.num_clusters, scene.obs_level,
                                        *scene.points_per_cluster))
    maps = (DensityMap(np.int64(2), np.zeros((4, 4))), rasterize(POINTS, np.int32(2)),
            downsample_sum(MAP, np.int64(1)), downsample_avg(MAP, np.int64(1)),
            upsample_replicate(MAP, np.uint8(3)))
    assert [m.level for m in maps] == [2, 2, 1, 1, 3] and all(type(m.level) is int for m in maps)
    dense = ResolutionSet.dense(np.int64(1), np.uint8(4)).levels
    assert dense == (0, 1, 4) and all(type(v) is int for v in dense)
    model = TinyModel(np.int64(2), np.zeros(39))
    assert type(model.channels) is int
    run = run_benchmark_cell(CELL, np.int64(5), "pml")
    assert type(run.base_seed) is int and run.metrics == run_benchmark_cell(CELL, 5, "pml").metrics


def test_numpy_integers_give_the_python_integers_results():
    assert total_loss(PREDS, GTS, np.int64(1)) == total_loss(PREDS, GTS, 1)
    assert l2_level(PREDS, GTS, np.uint8(1)) == l2_level(PREDS, GTS, 1)
    assert l_diff(PREDS, GTS, np.int16(2)) == l_diff(PREDS, GTS, 2)
    assert alpha_coefficients(np.int64(3)) == alpha_coefficients(3)
    assert derive_seed(np.uint64(2**64 - 1), np.int64(-3)) == derive_seed(2**64 - 1, -3)
    a, b = SplitMix64(np.uint64(9)), SplitMix64(9)
    assert a.uniform_block(np.int64(5)).tolist() == b.uniform_block(5).tolist()
    assert a.gaussian_block(np.int32(3)).tolist() == b.gaussian_block(3).tolist()
    assert a.randint(np.int8(0), np.int64(9)) == b.randint(0, 9)
    assert verify_theorem(np.int64(2), np.int64(3), np.int8(4), np.int8(2)).to_csv() == (
        verify_theorem(2, 3, 4, 2).to_csv())


def _variances(sigma_sq):
    return likelihood_with_variances(PREDS, GTS, (0, 1, 2), sigma_sq)


# (setting name in the message, call with the value under test)
REAL_SETTINGS = {
    **{f"SceneConfig.{name}": (name, lambda v, name=name: SceneConfig(seed=0, **{name: v}))
       for name in ("scene_size", "cluster_spread", "blob_sigma", "noise_std")},
    **{f"BenchmarkConfig.{name}": (name, lambda v, name=name: BenchmarkConfig(**{name: v}))
       for name in ("lr", "clip_norm")},
    "PointAnnotations": ("scene_size", lambda v: PointAnnotations(np.empty((0, 2)), v)),
    # the size is checked before the file is opened
    "read_points_csv": ("scene_size", lambda v: read_points_csv("no-such-dir/points.csv", v)),
    "likelihood_with_variances.0": ("sigma_sq[0]", lambda v: _variances({0: v, 1: 1.0})),
    "likelihood_with_variances.1": ("sigma_sq[1]", lambda v: _variances({0: 1.0, 1: v})),
}


@pytest.mark.parametrize("value", ["0.5", None, True, 1 + 0j, Fraction(1, 2), Decimal("0.5"),
                                   np.True_], ids=repr)
@pytest.mark.parametrize("entry", REAL_SETTINGS)
def test_non_real_setting_rejected(entry, value):
    name, call = REAL_SETTINGS[entry]
    message = f"{name} must be a number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_integer_past_the_float_range_is_infinite():
    with pytest.raises(ValueError, match=r"^scene_size must be finite and > 0, got inf$"):
        SceneConfig(seed=0, scene_size=10**400)
    with pytest.raises(ValueError, match=r"^lr must be finite and >= 0, got -inf$"):
        BenchmarkConfig(lr=-10**400)


def test_numpy_reals_are_stored_as_floats():
    assert SceneConfig(seed=7, blob_sigma=np.float64(0.035)) == SceneConfig(seed=7)
    a, b = (generate_scene(SceneConfig(seed=7, blob_sigma=v)) for v in (np.float64(0.035), 0.035))
    assert a.observation.tobytes() == b.observation.tobytes()
    assert a.gt_map.data.tobytes() == b.gt_map.data.tobytes()
    assert BenchmarkConfig(lr=np.float64(1e-3)) == BenchmarkConfig()
    # a float32 setting is widened exactly, to the float64 of the same value
    scene = SceneConfig(seed=7, scene_size=np.int64(2), cluster_spread=np.float32(0.1),
                        blob_sigma=np.uint8(1), noise_std=np.float16(0.5))
    assert scene == SceneConfig(seed=7, scene_size=2.0, cluster_spread=float(np.float32(0.1)),
                                blob_sigma=1.0, noise_std=0.5)
    cfg = BenchmarkConfig(lr=np.float32(0.25), clip_norm=np.int8(0))
    ann = PointAnnotations(np.empty((0, 2)), np.int16(3))
    values = (scene.scene_size, scene.cluster_spread, scene.blob_sigma, scene.noise_std,
              cfg.lr, cfg.clip_norm, ann.scene_size)
    assert all(type(v) is float for v in values)
    assert _variances({0: np.float32(0.5), 1: np.int64(2)}) == _variances({0: 0.5, 1: 2.0})


@pytest.mark.parametrize("config, name", [(config, field.name)
                                          for config in (SceneConfig, BenchmarkConfig)
                                          for field in fields(config)])
def test_every_config_field_rejects_none(config, name):
    # a field added to either config has to come with its rule
    base = {"seed": 0} if config is SceneConfig else {}
    with pytest.raises(ValueError, match=f"^{name} must be "):
        config(**{**base, name: None})
