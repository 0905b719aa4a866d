import dataclasses
import hashlib
import inspect
import itertools
import math
import re
import tomllib
from pathlib import Path

import numpy as np
import pytest
from packaging.requirements import Requirement
from packaging.specifiers import SpecifierSet

from conftest import PINNED_NUMPY, float64_dispatch, kernel_key, kernels, pinned, traced_peak
from pml import loss as loss_mod
from pml.loss import LossBreakdown, total_loss, loss_gradient
from pml.metrics import BenchmarkConfig
from pml.pyramid import DensityMap, PointAnnotations
from pml.rng import SplitMix64
from pml.synth import (
    Adam,
    Scene,
    SceneConfig,
    TinyModel,
    TrainingDiverged,
    Workspace,
    _conv3x3_single_output,
    _counting_errors,
    _softplus,
    clip_by_global_norm,
    generate_scene,
    predict_counts,
    train,
)

SMALL = SceneConfig(seed=0, obs_level=4, num_clusters=3, points_per_cluster=(2, 5),
                    cluster_spread=0.1, blob_sigma=0.06, noise_std=0.02)


def _small_scenes(base_seed, count):
    return [generate_scene(SceneConfig(seed=base_seed + i, obs_level=4, num_clusters=3,
                                       points_per_cluster=(2, 5), cluster_spread=0.1,
                                       blob_sigma=0.06, noise_std=0.02))
            for i in range(count)]


def _cfg(**changes):
    """The ``train`` tests' set-up: level-4 scenes, two channels, the rest the benchmark's."""
    return BenchmarkConfig(**{"level": 4, "channels": 2, **changes})


def _cycled(scenes, batch=2):
    """``train``'s batches: ``scenes`` stacked ``batch`` at a time in order, over and over."""
    obs, gt = np.stack([s.observation for s in scenes]), np.stack([s.gt_map.data for s in scenes])
    while True:
        for start in range(0, len(scenes), batch):
            yield obs[start:start + batch], gt[start:start + batch]


def _val(scenes):
    """``train``'s validation pair: the scenes' stacked observations and true counts."""
    return np.stack([s.observation for s in scenes]), np.array([s.gt_map.total() for s in scenes])


NO_VAL = (np.empty((0, 16, 16)), np.empty(0))


def _unreachable(message):
    """Batches whose first draw fails the test: ``train`` must reject its set-up before it."""
    raise AssertionError(message)
    yield


def _initialized(channels, seed, scale=1.0):
    """``TinyModel.initialize`` with weights ``scale / INIT_SCALE`` times as wide.

    The benchmark's small initial weights leave the hidden layer near-linear;
    the full fan-scaled range exercises the tanh and softplus curvature.
    """
    model = TinyModel.initialize(channels, seed)
    model.params[:-1] *= scale / TinyModel.INIT_SCALE  # the weights and the zero hidden bias
    return model


class TestRecordsThatHoldArrays:
    """``==`` and ``hash`` on a record that holds an array are identity, so neither raises."""

    @pytest.mark.parametrize("make", [
        lambda: DensityMap(1, [[1.0, 2.0], [3.0, 4.0]]),
        lambda: PointAnnotations([[0.25, 0.5]], 1.0),
        lambda: generate_scene(SMALL),
        lambda: TinyModel.initialize(2, seed=1),
    ], ids=["DensityMap", "PointAnnotations", "Scene", "TinyModel"])
    def test_equality_and_hash_are_identity(self, make):
        record, copy = make(), make()
        assert record == record and not record != record
        assert record != copy and not record == copy
        assert len({record, copy, record}) == 2 and record in {record} and copy not in {record}


class TestSceneConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(seed=0, scene_size=0.0)
        with pytest.raises(ValueError):
            SceneConfig(seed=0, num_clusters=-1)
        with pytest.raises(ValueError):
            SceneConfig(seed=0, points_per_cluster=(5, 2))
        with pytest.raises(ValueError):
            SceneConfig(seed=0, noise_std=-0.1)
        with pytest.raises(ValueError, match=r"^obs_level must be >= 0, got -1$"):
            SceneConfig(seed=0, obs_level=-1)

    # a non-finite size or spread once made generate_scene's rejection loop spin
    # forever, and a NaN noise_std silently turned the noise off
    @pytest.mark.parametrize("changes,message", [
        *(({name: value}, f"{name} must be finite and > 0, got {value}")
          for name in ("scene_size", "cluster_spread", "blob_sigma")
          for value in (math.nan, math.inf, -math.inf)),
        *(({"noise_std": value}, f"noise_std must be finite and >= 0, got {value}")
          for value in (math.nan, math.inf, -math.inf)),
    ])
    def test_non_finite_values_rejected(self, changes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SceneConfig(seed=0, **changes)


class TestGenerateScene:
    def test_empty_scene(self):
        cfg = SceneConfig(seed=3, num_clusters=0, noise_std=0.1, obs_level=3)
        scene = generate_scene(cfg)
        assert len(scene.annotations) == 0
        assert scene.gt_map.total() == 0.0
        assert scene.observation.shape == (8, 8)
        assert np.any(scene.observation != 0.0)  # noise only

    def test_same_seed_bit_identical(self):
        a = generate_scene(SMALL)
        b = generate_scene(SMALL)
        assert np.array_equal(a.observation, b.observation)
        assert np.array_equal(a.annotations.points, b.annotations.points)
        assert np.array_equal(a.gt_map.data, b.gt_map.data)

    def test_count_bookkeeping(self):
        cfg = SceneConfig(seed=5, num_clusters=5, points_per_cluster=(10, 10))
        scene = generate_scene(cfg)
        assert len(scene.annotations) == 50
        assert scene.gt_map.total() == 50.0

    def test_points_inside_scene(self):
        for seed in range(5):
            scene = generate_scene(SceneConfig(seed=seed, cluster_spread=0.5))
            pts = scene.annotations.points
            assert np.all(pts >= 0.0) and np.all(pts < scene.config.scene_size)

    def test_gt_total_matches_point_count(self):
        scene = generate_scene(SceneConfig(seed=9))
        assert scene.gt_map.total() == float(len(scene.annotations))

    # sha256 of points, observation and ground truth (little-endian float64);
    # scene bits are part of the determinism contract, so a change here is declared.
    # The blob's exp and the noise's log follow numpy's float64 dispatch: the
    # parametrized digests are those of its AVX-512 kernels, these of the C library's
    LIBM_SCENE_DIGESTS = {
        1: "ab3bb52d5a25317e6b72277e3775ade43be0e4f42286a466092ad000cdc011ee",
        2: "f6cb1f5c96a374d2f755dc8d21957c1eb09d8e33d57f24407efbec662e329195",
        3: "31c62d710d15c27e09a83d963ee360c3aebe0cea4e46470c5fda438aff47c282",
        4: "58482ecbaa730f3c92cf4b435525260939425f04232bacdd92f912c54ba90e8c",
        5: "dae74ba044efd29022c994f2065b4e2ed51a29f2c5621e4ddd2257f5b4987e4c",
    }

    @pytest.mark.dispatch  # the blob's exp and the noise's log: one digest set per dispatch
    @pytest.mark.parametrize("seed,changes,digest", [
        (1, {}, "04faac444e1209de2a761aeabc9494edeed89bd7adb6e19a793700c6facd9a23"),
        (2, {}, "9f535e59f2bbde619a1955f671348c1f7bb90bdbfc9571d4e07ec7e50b04a870"),
        (3, {}, "c8a1003f76eb6e7a8f75ee66930ead867bcec10647dfb6a5a1ba31d9f60d947c"),
        (4, {"num_clusters": 0}, "d30ce5bd4788e4639a4bd1dcf974f71b2cbdd0f19d61fec82fcb563baeaa037f"),
        (5, {"noise_std": 0.0}, "42f0bb3181092064350188e60b101fcd2260c89742f84225620ce5e2505f8822"),
    ])
    def test_benchmark_scene_bits_are_pinned(self, seed, changes, digest):
        # tanh and BLAS never touch a scene, so its digests are keyed on exp/log alone
        digests = {"avx512": digest, "libm": self.LIBM_SCENE_DIGESTS[seed]}
        want = pinned(digests, kernel_key().exp_log)
        cfg = dataclasses.replace(BenchmarkConfig().scene_config(seed), **changes)
        scene = generate_scene(cfg)
        h = hashlib.sha256()
        for a in (scene.annotations.points, scene.observation, scene.gt_map.data):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert h.hexdigest() == want, kernels()

    @staticmethod
    def _offset_attempts(cfg):
        """Offset attempts of ``cfg``'s scene, by a rejection loop over a scalar stream."""
        rng, size = SplitMix64(cfg.seed), cfg.scene_size
        centers = [(rng.uniform(0.0, size), rng.uniform(0.0, size)) for _ in range(cfg.num_clusters)]
        counts = [rng.randint(*cfg.points_per_cluster) for _ in range(cfg.num_clusters)]
        attempts = 0
        for (cx, cy), count in zip(centers, counts):
            accepted = 0
            while accepted < count:
                attempts += 1
                dx, dy = rng.gaussian_pair(cfg.cluster_spread)
                accepted += 0.0 <= cx + dx < size and 0.0 <= cy + dy < size
        return attempts

    def test_one_gaussian_pair_call_per_offset_attempt(self, monkeypatch):
        # the traced benchmark reads its accept ratio off these two call counts
        configs = [BenchmarkConfig().scene_config(seed) for seed in range(1, 21)]
        configs.append(dataclasses.replace(configs[0], noise_std=0.0))
        attempts = [self._offset_attempts(cfg) for cfg in configs]
        calls = {"gaussian_pair": 0, "uniform_block": 0}

        def counting(name):
            original = getattr(SplitMix64, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(SplitMix64, name, counting(name))
        for cfg, want in zip(configs, attempts):
            calls.update(gaussian_pair=0, uniform_block=0)
            generate_scene(cfg)
            assert calls == {"gaussian_pair": want, "uniform_block": int(cfg.noise_std > 0)}
        assert sum(attempts[:20]) > sum(len(generate_scene(cfg).annotations) for cfg in configs[:20])


class TestTinyModel:
    def test_zero_parameters_give_constant_activation(self):
        model = TinyModel.initialize(channels=2, seed=0)
        model.params = np.zeros_like(model.params)
        out = model.forward(np.zeros((8, 8)))
        assert np.allclose(out.data, math.log(2.0))
        out2 = model.forward(SplitMix64(1).uniform_block(64).reshape(8, 8))
        assert np.allclose(out2.data, math.log(2.0))

    def test_shape_mismatch_rejected(self):
        # one model runs on every square grid; a map's level comes from its side
        model = TinyModel.initialize(channels=2, seed=0)
        assert [model.forward(np.zeros((s, s))).level for s in (1, 4, 8)] == [0, 2, 3]
        with pytest.raises(ValueError, match=re.escape("shape (1, 4, 8) is not (B, side, side)")):
            model.forward(np.zeros((4, 8)))
        with pytest.raises(ValueError, match="power-of-two side"):
            model.forward(np.zeros((6, 6)))

    def test_output_always_positive(self):
        rng = SplitMix64(2)
        for seed in range(5):
            model = _initialized(3, seed, scale=2.0)
            obs = rng.uniform_block(256, -3, 3).reshape(16, 16)
            assert np.all(model.forward(obs).data > 0.0)

    def test_translation_equivariance_in_the_interior(self):
        model = _initialized(4, 11)
        obs = SplitMix64(12).uniform_block(1024).reshape(32, 32)
        shifted = np.zeros_like(obs)
        shifted[1:, 1:] = obs[:-1, :-1]
        _, cache = model._forward_cache(obs[None], Workspace())
        z = cache[2][0]
        _, cache_s = model._forward_cache(shifted[None], Workspace())
        z_s = cache_s[2][0]
        # two 3x3 stages reach 2 cells; compare cells untouched by borders
        np.testing.assert_allclose(z_s[3:-2, 3:-2], z[2:-3, 2:-3], atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_parameter_gradient_matches_finite_differences(self, seed):
        rng = SplitMix64(100 + seed)
        model = _initialized(3, seed)
        obs = rng.uniform_block(2 * 256).reshape(2, 16, 16)
        gts = [DensityMap(4, rng.uniform_block(256).reshape(16, 16)) for _ in range(2)]

        def loss_of(params):
            m = TinyModel(3, params)
            preds, _ = m._forward_cache(obs, Workspace())
            return total_loss(preds, gts, 2).total

        preds, cache = model._forward_cache(obs, Workspace())
        analytic = model._backward(cache, loss_gradient(preds, gts, 2))
        fd = np.zeros_like(model.params)
        for i in range(model.params.size):
            h = 1e-6 * (1.0 + abs(model.params[i]))
            p = model.params.copy()
            p[i] += h
            hi = loss_of(p)
            p[i] -= 2 * h
            lo = loss_of(p)
            fd[i] = (hi - lo) / (2.0 * h)
        err = np.max(np.abs(fd - analytic)) / max(np.max(np.abs(fd)), 1e-300)
        assert err < 1e-4


def _reference_im2col(x):
    """Patch matrix (C*9, B*H*W) of a zero-padded (C, B, H, W) stack, row c*9 + k."""
    c, batch, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    rows = [xp[ci, :, du:du + h, dv:dv + w].ravel()
            for ci in range(c) for du in range(3) for dv in range(3)]
    return np.array(rows)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSecondStage:
    """The C->1 stage against the patch-matrix lowering it replaced."""

    @pytest.mark.parametrize("shape", [(3, 1, 1, 1), (3, 1, 2, 2), (4, 1, 16, 16), (6, 2, 8, 8)])
    def test_forward_matches_patch_matrix(self, shape):
        rng = SplitMix64(sum(shape))
        x = rng.uniform_block(int(np.prod(shape)), -1.0, 1.0).reshape(shape)
        w = rng.uniform_block(9 * shape[0], -1.0, 1.0).reshape(shape[0], 9)
        want = (w.reshape(1, -1) @ _reference_im2col(x)).reshape(shape[1:])
        buf = Workspace().buffers(shape[1], shape[2], shape[0])
        assert _rel_err(_conv3x3_single_output(x, w, buf.hp, buf.y), want) < 1e-12

    @pytest.mark.parametrize("channels,batch,side", [(6, 2, 64), (3, 1, 1), (6, 1, 2), (4, 3, 16)])
    def test_flat_slices_equal_strided_window_adds(self, channels, batch, side):
        rng = SplitMix64(channels * batch + side)
        x = rng.uniform_block(channels * batch * side * side, -1.0, 1.0)
        x = x.reshape(channels, batch, side, side)
        w = rng.uniform_block(9 * channels, -1.0, 1.0).reshape(channels, 9)
        buf = Workspace().buffers(batch, side, channels)
        got = _conv3x3_single_output(x, w, buf.hp, buf.y)
        # the same products, summed as nine 3-D windows of the padded responses in offset order
        xp = np.zeros((channels, batch, side + 2, side + 2))
        xp[:, :, 1:-1, 1:-1] = x
        y = (w.T @ xp.reshape(channels, -1)).reshape(9, batch, side + 2, side + 2)
        want = y[0, :, :side, :side].copy()
        for k in range(1, 9):
            du, dv = divmod(k, 3)
            want += y[k, :, du:du + side, dv:dv + side]
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.dispatch  # bit for bit against logaddexp only under the C library's exp/log1p
class TestSoftplus:
    def test_matches_logaddexp(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 160001),
                            [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0,
                             np.inf, -np.inf]])
        before = z.copy()
        got, want = _softplus(z), np.logaddexp(0.0, z)
        assert np.array_equal(z, before) and not np.shares_memory(got, z)
        if float64_dispatch() == "libm":
            assert np.array_equal(got, want)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        # subnormal outputs (z below about -708.4) may differ by one subnormal step
        tol = np.maximum(4.5e-16 * want[finite], np.spacing(0.0))
        assert np.all(np.abs(got[finite] - want[finite]) <= tol)


def _reference_model(params, channels, obs, dpreds):
    """The patch-matrix model with 4-D kernels, w1 (C, 1, 3, 3) and w2 (1, C, 3, 3).

    Returns preds, h, z2 and the gradient (dw1, db1, dw2, db2) for ``dpreds``.
    """
    c, shape = channels, obs.shape
    w1 = params[:9 * c].reshape(c, 1, 3, 3)
    b1 = params[9 * c:10 * c]
    w2 = params[10 * c:19 * c].reshape(1, c, 3, 3)
    b2 = params[19 * c:]
    cols1 = _reference_im2col(obs[None])
    h = np.tanh((w1.reshape(c, -1) @ cols1 + b1[:, None]).reshape((c,) + shape))
    cols2 = _reference_im2col(h)
    z2 = (w2.reshape(1, -1) @ cols2 + b2[:, None]).reshape(shape)
    preds = np.logaddexp(0.0, z2)
    dz2 = dpreds * 0.5 * (1.0 + np.tanh(0.5 * z2))
    w2_flip = np.ascontiguousarray(w2[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))  # (C, 1, 3, 3)
    dh = (w2_flip.reshape(c, -1) @ _reference_im2col(dz2[None])).reshape((c,) + shape)
    dz1 = (dh * (1.0 - h * h)).reshape(c, -1)
    grad = [dz1 @ cols1.T, dz1.sum(axis=1), dz2.reshape(1, -1) @ cols2.T, np.array([dz2.sum()])]
    return preds, h, z2, grad


class TestPatchMatrixReference:
    """Forward and backward against the 4-D kernel, channel-axis lowering."""

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("level", [0, 1, 4])
    @pytest.mark.parametrize("channels", [3, 6])
    def test_forward_and_gradient_match(self, batch, level, channels):
        side = 1 << level
        model = _initialized(channels, 7 * level + channels)
        rng = SplitMix64(100 * batch + 10 * level + channels)
        obs = rng.uniform_block(batch * side * side).reshape(batch, side, side)
        dpreds = rng.uniform_block(batch * side * side, -1.0, 1.0).reshape(batch, side, side)
        preds, h, z2, want_grad = _reference_model(model.params, channels, obs, dpreds)
        got_preds, cache = model._forward_cache(obs, Workspace())
        for got, want in ((got_preds, preds), (cache[1], h), (cache[2], z2)):
            assert got.shape == want.shape and _rel_err(got, want) < 1e-12
        grad = model._backward(cache, dpreds)
        bounds = np.cumsum([0] + [g.size for g in want_grad])
        assert grad.shape == (bounds[-1],)
        for lo, hi, want in zip(bounds, bounds[1:], want_grad):
            assert _rel_err(grad[lo:hi], want.ravel()) < 1e-12


class TestWorkspace:
    """A reused workspace against a fresh one per call."""

    @pytest.mark.parametrize("level", [0, 1, 4, 6])
    @pytest.mark.parametrize("channels", [1, 3, 6, 12])  # at 12, 1 - h*h outgrows y at levels 4, 6
    def test_reused_workspace_matches_fresh_path(self, level, channels):
        side = 1 << level
        model = _initialized(channels, level + channels)
        rng = SplitMix64(1000 + 10 * level + channels)
        work = Workspace()
        for _ in range(3):
            for batch in (2, 1, 3):
                obs = rng.uniform_block(batch * side * side).reshape(batch, side, side)
                dpreds = rng.uniform_block(batch * side * side, -1.0, 1.0).reshape(obs.shape)
                want_preds, want_cache = model._forward_cache(obs, Workspace())
                want_grad = model._backward(want_cache, dpreds)
                preds, cache = model._forward_cache(obs, work)
                assert np.array_equal(preds, want_preds)
                for got, want in zip(cache[:3], want_cache[:3]):
                    assert np.array_equal(got, want)
                assert np.array_equal(model._backward(cache, dpreds), want_grad)
            model.params = model.params + rng.uniform_block(model.params.size, -0.1, 0.1)

    def test_backward_buffers_share_the_offset_responses_memory(self):
        # cols_dz2 and then 1 - h*h are views of the block of y; their lifetimes do not overlap
        peak = traced_peak(lambda: Workspace().buffers(2, 64, 6))
        print(f"workspace peak: {peak / 2**20:.2f} MiB for batch 2, side 64, 6 channels")
        assert peak <= 2.5 * 2**20, f"workspace peak {peak / 2**20:.2f} MiB"

    def test_fresh_path_caches_are_independent(self):
        model = _initialized(3, 1)
        rng = SplitMix64(77)
        obs = rng.uniform_block(4 * 256).reshape(2, 2, 16, 16)
        dpreds = rng.uniform_block(2 * 256, -1.0, 1.0).reshape(2, 16, 16)
        preds, cache = model._forward_cache(obs[0], Workspace())
        kept = [a.copy() for a in (preds, *cache[:3])]
        grad = model._backward(cache, dpreds)
        model._forward_cache(obs[1], Workspace())
        for got, want in zip((preds, *cache[:3]), kept):
            assert np.array_equal(got, want)
        assert np.array_equal(model._backward(cache, dpreds), grad)

    @pytest.mark.parametrize("func", [TinyModel._forward_cache, predict_counts, _counting_errors])
    def test_every_forward_runs_in_its_callers_workspace(self, func):
        assert inspect.signature(func).parameters["work"].default is inspect.Parameter.empty

    def test_identical_train_calls_give_identical_trace_csv(self):
        # 7 scenes in batches of 2 and 5 validation scenes in pairs: the
        # workspace serves batch shapes 2 and 1 in both training and validation
        scenes = _small_scenes(30, 7)
        model = TinyModel.initialize(channels=3, seed=8)
        cfg = _cfg(channels=3, steps=9, lr=1e-2, n=2, val_every=2)
        runs = [train(model, _cycled(scenes), cfg, loss_kind="pml", val=_val(scenes[:5]))
                for _ in range(2)]
        assert runs[0].trace_csv().encode() == runs[1].trace_csv().encode()
        assert np.array_equal(runs[0].model.params, runs[1].model.params)


@pytest.mark.dispatch  # two-scene forwards against single-scene ones on each dispatch's softplus
class TestPredictCounts:
    def test_equals_single_scene_forward_bit_for_bit(self):
        cfg = BenchmarkConfig()
        scenes = [generate_scene(cfg.scene_config(200 + i)) for i in range(65)]
        model = _initialized(cfg.channels, 3)
        counts = predict_counts(model, np.stack([s.observation for s in scenes]), Workspace())
        assert counts.tolist() == [model.forward(s.observation).total() for s in scenes]


class TestClipping:
    def test_norm_25_clipped_to_scale_04(self):
        grad = np.full(25, 5.0)  # L2 norm 25
        clipped, norm, was_clipped = clip_by_global_norm(grad, 10.0)
        assert norm == 25.0
        assert was_clipped
        assert np.array_equal(clipped, grad * 0.4)

    def test_below_threshold_untouched(self):
        grad = np.array([3.0, 4.0])  # norm 5
        clipped, norm, was_clipped = clip_by_global_norm(grad, 10.0)
        assert norm == 5.0
        assert not was_clipped
        assert clipped is grad


class TestAdam:
    def test_zero_learning_rate_is_identity(self):
        opt = Adam(4, lr=0.0)
        params = np.array([1.0, -2.0, 3.0, 0.5])
        out = opt.step(params, np.array([10.0, -3.0, 0.1, 2.0]))
        assert np.array_equal(out, params)

    def test_step_direction_opposes_gradient(self):
        opt = Adam(2, lr=0.1)
        params = np.zeros(2)
        out = opt.step(params, np.array([1.0, -1.0]))
        assert out[0] < 0.0 < out[1]


class TestTrain:
    def test_zero_lr_keeps_parameters_and_metrics_constant(self):
        scenes = _small_scenes(0, 8)
        model = TinyModel.initialize(channels=2, seed=1)
        result = train(model, _cycled(scenes), _cfg(steps=6, lr=0.0, n=2, val_every=2),
                       loss_kind="pml", val=_val(scenes[:4]))
        assert np.array_equal(result.model.params, model.params)
        maes = [r.val_mae for r in result.rows if r.val_mae is not None]
        assert len(set(maes)) == 1

    def test_deterministic_given_seed(self):
        scenes = _small_scenes(5, 8)
        model = TinyModel.initialize(channels=2, seed=2)
        a, b = (train(model, _cycled(scenes), _cfg(steps=10, n=2), loss_kind="pml",
                      val=NO_VAL) for _ in range(2))
        assert np.array_equal(a.model.params, b.model.params)
        assert a.rows == b.rows

    def test_does_not_mutate_input_model(self):
        scenes = _small_scenes(6, 4)
        model = TinyModel.initialize(channels=2, seed=2)
        before = model.params.copy()
        train(model, _cycled(scenes), _cfg(steps=3), loss_kind="l2", val=NO_VAL)
        assert np.array_equal(model.params, before)

    @pytest.mark.parametrize("steps", [4, 5])
    def test_no_batch_is_drawn_after_the_last_step(self, steps):
        drawn = []

        def batches():
            for batch in _cycled(_small_scenes(50, 4)):
                drawn.append(len(drawn) + 1)
                yield batch

        model = TinyModel.initialize(channels=2, seed=3)
        result = train(model, batches(), _cfg(steps=steps), loss_kind="l2", val=NO_VAL)
        assert drawn == list(range(1, steps + 1)) and len(result.rows) == steps

    @pytest.mark.parametrize("count", [0, 3])
    def test_batches_that_end_before_the_last_step_raise(self, count, monkeypatch):
        # training does not silently stop short, and it steps once per batch it was handed
        stepped = []
        original = Adam.step

        def step(opt, params, grad):
            stepped.append(opt.t)
            return original(opt, params, grad)

        monkeypatch.setattr(Adam, "step", step)
        model = TinyModel.initialize(channels=2, seed=3)
        with pytest.raises(ValueError, match=f"^batches ran out after {count} of 5 steps$"):
            train(model, itertools.islice(_cycled(_small_scenes(50, 4)), count),
                  _cfg(steps=5, val_every=1), loss_kind="l2", val=_val(_small_scenes(60, 2)))
        assert stepped == list(range(count))

    def test_predictions_stay_positive_during_training(self):
        scenes = _small_scenes(7, 8)
        model = TinyModel.initialize(channels=2, seed=4)
        result = train(model, _cycled(scenes), _cfg(steps=15, lr=1e-2, n=2), loss_kind="pml",
                       val=NO_VAL)
        for s in scenes:
            assert np.all(result.model.forward(s.observation).data > 0.0)

    @pytest.mark.parametrize("loss_kind", ["pml", "l2"])
    def test_divergence_aborts_with_the_steps_breakdown(self, loss_kind):
        # a NaN output bias makes the first loss NaN; the pml loss reports that
        # step's breakdown, and plain L2 has none
        scenes = _small_scenes(8, 4)
        model = TinyModel.initialize(channels=2, seed=5)
        model.params[-1] = np.nan
        with pytest.raises(TrainingDiverged) as info:
            train(model, _cycled(scenes), _cfg(steps=3, n=2), loss_kind=loss_kind, val=NO_VAL)
        assert info.value.step == 1 and math.isnan(info.value.loss_value)
        if loss_kind == "pml":
            assert isinstance(info.value.breakdown, LossBreakdown)
            assert math.isnan(info.value.breakdown.total)
        else:
            assert info.value.breakdown is None

    def test_invalid_loss_kind_rejected(self):
        scenes = _small_scenes(9, 4)
        model = TinyModel.initialize(channels=2, seed=6)
        with pytest.raises(ValueError, match="loss_kind"):
            train(model, _cycled(scenes), _cfg(steps=1), loss_kind="huber", val=NO_VAL)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected_before_any_epoch(self, batch):
        # a bad batch once made the scene stream spin epoch after epoch
        model = TinyModel.initialize(channels=2, seed=8)
        with pytest.raises(ValueError, match=f"batch must be >= 1, got {batch}"):
            train(model, _unreachable("a batch was drawn"), _cfg(steps=2, batch=batch),
                  loss_kind="l2", val=NO_VAL)

    @pytest.mark.parametrize("loss_kind", ["pml", "l2"])
    @pytest.mark.parametrize("n,message", [(5, "n = 5 exceeds prediction level 4"),
                                           (-1, "n must be >= 0, got -1")])
    def test_n_outside_the_levels_rejected_for_both_losses(self, loss_kind, n, message):
        model = TinyModel.initialize(channels=2, seed=9)
        with pytest.raises(ValueError, match=message):
            train(model, _unreachable("n was not checked before the first batch"),
                  _cfg(steps=1, n=n), loss_kind=loss_kind, val=NO_VAL)

    def test_batch_trains_at_its_own_level(self):
        # level-3 scenes train the same under cfg.level 4 as under 3, and the pml
        # loss checks n against the level of the batch, not of the config
        scenes = [generate_scene(dataclasses.replace(SMALL, seed=60 + i, obs_level=3))
                  for i in range(4)]
        model = TinyModel.initialize(channels=2, seed=9)
        runs = [train(model, _cycled(scenes), _cfg(level=level, steps=5, n=2, val_every=2),
                      loss_kind="pml", val=_val(scenes[:3]))
                for level in (4, 3)]
        assert runs[0].rows == runs[1].rows and len(runs[0].rows) == 5
        assert np.array_equal(runs[0].model.params, runs[1].model.params)
        with pytest.raises(ValueError, match="^n = 4 exceeds prediction level 3$"):
            train(model, _cycled(scenes), _cfg(steps=5, n=4), loss_kind="pml", val=NO_VAL)

    @pytest.mark.parametrize("loss_kind", ["pml", "l2"])
    def test_divergence_raises_from_the_loss_check_with_its_loss(self, loss_kind, monkeypatch):
        # an infinite output bias makes every prediction inf; no scan of the predictions
        # raises first, the loss check does, with the loss the step computed
        computed = []
        name = "_evaluate" if loss_kind == "pml" else "_sq_norm"
        original = getattr(loss_mod, name)

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            computed.append(result[0].total if loss_kind == "pml" else result)
            return result

        monkeypatch.setattr(loss_mod, name, recording)
        model = TinyModel.initialize(channels=2, seed=5)
        model.params[-1] = np.inf
        with pytest.raises(TrainingDiverged) as info:
            train(model, _cycled(_small_scenes(8, 4)), _cfg(steps=3, n=2),
                  loss_kind=loss_kind, val=NO_VAL)
        [loss_value] = computed
        assert not math.isfinite(loss_value) and info.value.step == 1
        assert str(info.value) == f"non-finite loss {loss_value} at step 1"
        assert repr(info.value.loss_value) == repr(loss_value)
        if loss_kind == "l2":
            assert loss_value == math.inf

    def test_trace_csv_layout(self):
        scenes = _small_scenes(10, 4)
        model = TinyModel.initialize(channels=2, seed=7)
        result = train(model, _cycled(scenes), _cfg(steps=4, n=1, val_every=2),
                       loss_kind="pml", val=_val(scenes[:2]))
        lines = result.trace_csv().strip().splitlines()
        assert lines[0] == "step,loss,grad_norm,clipped,val_mae,val_mse"
        assert len(lines) == 5
        row2 = lines[2].split(",")
        assert row2[0] == "2" and row2[4] != "" and row2[5] != ""
        row1 = lines[1].split(",")
        assert row1[4] == "" and row1[5] == ""


class TestSceneInvariants:
    def test_observation_locked(self):
        scene = generate_scene(SMALL)
        with pytest.raises(ValueError):
            scene.observation[0, 0] = 1.0

    def test_scene_is_frozen(self):
        scene = generate_scene(SMALL)
        with pytest.raises(AttributeError):
            scene.gt_map = None


def test_ci_installs_the_pinned_numpy_that_pyproject_admits():
    # the numpy the bit pins were recorded on is stated three times: CI's install,
    # PINNED_NUMPY and the package's requirement; a change to one alone fails here.
    # CI's one Python is stated twice, and the package must admit it
    root = Path(__file__).resolve().parents[1]
    ci = (root / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"numpy==(\S+)", ci) == [PINNED_NUMPY]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    [numpy_req] = [r for r in map(Requirement, project["dependencies"]) if r.name == "numpy"]
    assert numpy_req.specifier.contains(PINNED_NUMPY), f"{numpy_req} rejects {PINNED_NUMPY}"
    [python] = re.findall(r'python-version:\s*"([^"]+)"', ci)
    requires = SpecifierSet(project["requires-python"])
    assert requires.contains(python), f"requires-python {requires} rejects CI's Python {python}"
