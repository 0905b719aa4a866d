import hashlib
import inspect
import json
import math
import re
import typing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_key, kernels, pinned, traced_peak
from pml import metrics, synth
from pml.metrics import (
    _TEST,
    _TRAIN,
    BenchmarkConfig,
    _scene_stacks,
    _set_seeds,
    ablation_run,
    evaluate,
    run_benchmark_cell,
    stream_manifest,
    stream_manifest_hash,
    train_batches,
)
from pml.pyramid import DensityMap
from pml.rng import SplitMix64, derive_seed
from pml.synth import SceneConfig, generate_scene

TINY = BenchmarkConfig(
    level=4,
    channels=2,
    n=2,
    steps=12,
    batch=2,
    scenes_per_epoch=4,
    val_count=2,
    test_count=6,
    val_every=6,
)


def _count_maps(counts):
    return [DensityMap(0, [[float(c)]]) for c in counts]


class TestEvaluate:
    def test_perfect_fit(self):
        maps = _count_maps([3, 7, 11])
        summary = evaluate(maps, maps)
        assert summary.mae == 0.0 and summary.mse == 0.0

    def test_hand_evaluated(self):
        summary = evaluate(_count_maps([10, 12]), _count_maps([11, 11]))
        assert summary.mae == 1.0
        assert summary.mse == 1.0

    def test_single_sample_collapse(self):
        summary = evaluate(_count_maps([10.5]), _count_maps([7.0]))
        assert summary.mae == summary.mse == 3.5

    def test_per_sample_records(self):
        summary = evaluate(_count_maps([5, 6]), _count_maps([4, 8]))
        assert summary.per_sample == ((5.0, 4.0), (6.0, 8.0))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(_count_maps([1]), _count_maps([1, 2]))

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_mae_never_exceeds_mse(self, pairs):
        preds = _count_maps([p for p, _ in pairs])
        gts = _count_maps([g for _, g in pairs])
        summary = evaluate(preds, gts)
        assert summary.mae <= summary.mse + 1e-12

    def test_permutation_invariance(self):
        preds = _count_maps([3, 1, 4, 1, 5])
        gts = _count_maps([2, 7, 1, 8, 2])
        base = evaluate(preds, gts)
        perm = [4, 2, 0, 3, 1]
        shuffled = evaluate([preds[i] for i in perm], [gts[i] for i in perm])
        assert shuffled.mae == pytest.approx(base.mae, rel=1e-12)
        assert shuffled.mse == pytest.approx(base.mse, rel=1e-12)


class TestBenchmarkConfig:
    @pytest.mark.parametrize("build", [lambda **c: BenchmarkConfig(**c),
                                       lambda **c: replace(BenchmarkConfig(), **c)],
                             ids=["constructor", "replace"])
    @pytest.mark.parametrize("changes,message", [
        *(({name: value}, f"{name} must be finite and >= 0, got {value}")
          for name in ("lr", "clip_norm") for value in (math.nan, math.inf, -1.0)),
        *(({name: value}, f"{name} must be >= 1, got {value}")
          for name in ("steps", "channels", "batch", "scenes_per_epoch", "test_count", "val_every")
          for value in (0, -1)),
        ({"val_count": -1}, "val_count must be >= 0, got -1"),
        ({"n": -1}, "n must be >= 0, got -1"),
        ({"n": 7}, "n = 7 exceeds prediction level 6"),
        # a NaN clip_norm once turned clipping off without a word
        ({"steps": 20, "clip_norm": math.nan, "val_count": 2, "test_count": 2},
         "clip_norm must be finite and >= 0, got nan"),
    ])
    def test_invalid_set_up_rejected(self, build, changes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(**changes)

    # val_every=2.5 once validated at steps 5, 10 and so on
    @pytest.mark.parametrize("build", [lambda **c: BenchmarkConfig(**c),
                                       lambda **c: replace(BenchmarkConfig(), **c)],
                             ids=["constructor", "replace"])
    @pytest.mark.parametrize("name", ["level", "channels", "n", "steps", "batch",
                                      "scenes_per_epoch", "val_count", "test_count", "val_every"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True, None])
    def test_non_integer_count_rejected(self, build, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(**{name: value})

    def test_boundary_values_accepted(self):
        cfg = BenchmarkConfig(lr=0.0, clip_norm=0.0, val_count=0, val_every=np.uint8(1),
                              n=np.int64(6))
        assert type(cfg.n) is type(cfg.val_every) is int  # the manifest's JSON takes them
        assert replace(cfg, n=0, steps=1, batch=1, scenes_per_epoch=1, test_count=1).n == 0

    def test_lives_in_synth_and_no_function_restates_a_default(self):
        cfg_type = typing.get_type_hints(synth.train)["cfg"]
        assert cfg_type is synth.BenchmarkConfig is metrics.BenchmarkConfig
        assert cfg_type.__module__ == "pml.synth"
        for func, name in ((synth.TinyModel.initialize, "seed"),
                           (metrics.compare_pml_vs_l2, "cfg"),
                           (metrics.ablation_run, "repeats"), (metrics.ablation_run, "cfg")):
            default = inspect.signature(func).parameters[name].default
            assert default is inspect.Parameter.empty, f"{func.__qualname__}({name}={default!r})"


class TestStreams:
    def test_manifest_covers_planned_epochs(self):
        manifest = stream_manifest(TINY, 5)
        assert len(manifest.strip().splitlines()) == TINY.epochs * TINY.scenes_per_epoch

    def test_manifest_hash_depends_on_seed(self):
        assert stream_manifest_hash(TINY, 1) != stream_manifest_hash(TINY, 2)

    def test_manifest_hash_takes_numpy_integers(self):
        cfg = replace(TINY, level=np.int64(TINY.level), scenes_per_epoch=np.int32(4))
        assert stream_manifest_hash(cfg, 1) == stream_manifest_hash(TINY, 1)

    def test_manifest_hash_stable(self):
        assert stream_manifest_hash(TINY, 1) == stream_manifest_hash(TINY, 1)

    @pytest.mark.parametrize("cfg", [TINY, BenchmarkConfig(steps=40)])
    def test_manifest_lines_are_each_scene_configs_json(self, cfg):
        seed = derive_seed(9, _TRAIN)
        want = [json.dumps(cfg.scene_config(derive_seed(seed, epoch, i)).__dict__, sort_keys=True)
                for epoch in range(cfg.epochs) for i in range(cfg.scenes_per_epoch)]
        assert stream_manifest(cfg, 9) == "\n".join(want) + "\n"

    @pytest.mark.parametrize("cfg", [TINY, replace(TINY, scenes_per_epoch=5)])
    def test_batches_stack_the_manifest_scenes(self, cfg):
        # the scenes that train sees are the ones the manifest hash names: epoch e
        # stacks its manifest lines in the Fisher-Yates order of its own stream
        per_epoch, per_batch = cfg.scenes_per_epoch, cfg.batch
        lines = stream_manifest(cfg, 5).splitlines()
        batches = train_batches(cfg, 5)
        for epoch in range(cfg.epochs):
            scenes = [generate_scene(SceneConfig(**json.loads(line)))
                      for line in lines[epoch * per_epoch:(epoch + 1) * per_epoch]]
            rng = SplitMix64(derive_seed(derive_seed(5, _TRAIN), epoch))
            order = list(range(per_epoch))
            for i in range(per_epoch - 1, 0, -1):
                j = rng.randint(0, i)
                order[i], order[j] = order[j], order[i]
            for start in range(0, per_epoch, per_batch):
                obs, gt = next(batches)
                group = [scenes[i] for i in order[start:start + per_batch]]
                assert np.array_equal(obs, [s.observation for s in group])
                assert np.array_equal(gt, [s.gt_map.data for s in group])

    # the default stream, and one whose 7 scenes make a short last batch in each epoch
    @pytest.mark.parametrize("cfg", [BenchmarkConfig(),
                                     BenchmarkConfig(scenes_per_epoch=7, batch=3)])
    def test_manifest_hash_is_the_sha256_of_the_manifest(self, cfg):
        want = hashlib.sha256(stream_manifest(cfg, 17).encode()).hexdigest()
        assert stream_manifest_hash(cfg, 17) == want

    def test_benchmark_manifest_is_pinned(self):
        # every scene config of the default benchmark stream; JSON, so BLAS-independent
        assert stream_manifest_hash(BenchmarkConfig(), 3001) == (
            "1b50abe3e0a28edf71702c0252b11dc824774073a954a4462a9a8cff1f828ed5"
        )


class TestAblation:
    def test_single_cell_matches_direct_run(self):
        [runs] = ablation_run(3, [1], repeats=1, cfg=TINY)  # TINY.n is 2
        assert len(runs) == 2
        for run, kind in zip(runs, ("pml", "pml_noreg")):
            direct = run_benchmark_cell(replace(TINY, n=1), derive_seed(3, 0), kind)
            assert (run.loss_kind, run.n, run.base_seed) == (kind, 1, derive_seed(3, 0))
            assert run.metrics.mae == direct.metrics.mae
            assert run.metrics.mse == direct.metrics.mse

    def test_reg_on_and_off_cells_present(self):
        [runs] = ablation_run(4, [2], repeats=1, cfg=TINY)
        assert [(r.n, r.loss_kind) for r in runs] == [(2, "pml"), (2, "pml_noreg")]

    def test_stream_hash_identical_across_cells(self):
        sweep = ablation_run(5, [1, 2], repeats=2, cfg=TINY)
        by_repeat = [{r.stream_hash for r in runs} for runs in sweep]
        assert all(len(hashes) == 1 for hashes in by_repeat)
        assert by_repeat[0] != by_repeat[1]

    def test_deterministic(self):
        [a] = ablation_run(6, [1], repeats=1, cfg=TINY)
        [b] = ablation_run(6, [1], repeats=1, cfg=TINY)
        assert len(a) == len(b) == 2
        for x, y in zip(a, b):
            assert x.metrics == y.metrics
            assert x.stream_hash == y.stream_hash
            assert x.result.trace_csv() == y.result.trace_csv()

    def test_n_out_of_range_rejected(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("the sweep trained before checking every n")

        monkeypatch.setattr(metrics, "train", no_training)
        message = f"n = {TINY.level + 1} exceeds prediction level {TINY.level}"
        with pytest.raises(ValueError, match=message):
            ablation_run(9, [1, TINY.level + 1], repeats=1, cfg=TINY)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_fewer_than_one_repeat_rejected(self, repeats):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            ablation_run(9, [1], repeats=repeats, cfg=TINY)


class TestBenchmarkCell:
    def test_metrics_and_hash_populated(self):
        run = run_benchmark_cell(TINY, 11, "l2")
        assert run.metrics.mae >= 0.0
        assert len(run.stream_hash) == 64
        assert len(run.result.rows) == TINY.steps

    def test_pml_and_l2_share_streams(self):
        a = run_benchmark_cell(TINY, 12, "pml")
        b = run_benchmark_cell(TINY, 12, "l2")
        assert a.stream_hash == b.stream_hash

    @pytest.mark.dispatch  # a cell's test metrics against evaluate on each dispatch's bits
    def test_test_scores_equal_single_scene_evaluate(self):
        # an odd count leaves a one-scene tail in the two-per-forward pass
        cfg = replace(TINY, test_count=5)
        run = run_benchmark_cell(cfg, 13, "pml")
        seed = derive_seed(13, _TEST)
        scenes = [generate_scene(cfg.scene_config(derive_seed(seed, i))) for i in range(5)]
        want = evaluate([run.result.model.forward(s.observation) for s in scenes],
                        [s.gt_map for s in scenes])
        assert run.metrics == want
        observations, gts = _scene_stacks(cfg, _set_seeds(13, _TEST, cfg.test_count))
        assert np.array_equal(observations, [s.observation for s in scenes])
        assert np.array_equal(gts, [s.gt_map.data for s in scenes])

    # sha256 of trace_csv() and repr of the test (MAE, MSE) of a short seed-3001 cell, per
    # kernel key: training bits are part of the determinism contract, so a change here is
    # declared. The scenes and the softplus follow numpy's exp/log/log1p kernels, the hidden
    # activation its tanh kernel and the weight gradients OpenBLAS's core kernel
    TANH, BLAS = "9b169a03e33887f3", "b3cffc281cfaea5d"
    SHORT_CELL_BITS = {
        ("avx512", TANH, BLAS): {
            "pml": ("cdf99c6ed21cb36a3746bc47c046e2f5da541604ca513c829b45c7d9d03be7b0",
                    "61.06167374890922", "61.189177838595946"),
            "l2": ("a84bd200d56b1826b300ba2af8eb273e1491c17d4f171a41f97cdb7b83746bb3",
                   "50.25522939498452", "50.325770667630636"),
            "pml_noreg": ("c8965222d778220cb58b8648d456f727acf3b1d4752f67c2802ae0e4ef651a73",
                          "48.03366597812837", "48.093799976000476"),
        },
        ("libm", TANH, BLAS): {
            "pml": ("d26be1c13d628194859a1a7a7de7bcadf4881507a64463648828a14bd9b87e68",
                    "61.061673748909236", "61.18917783859596"),
            "l2": ("42893f1c162b64566296ff8258cad7ebb41909da6cc2fb45992248a6cfeac68c",
                   "50.25522939498452", "50.325770667630636"),
            "pml_noreg": ("d70a4d02082f89b7483d4a4c7bd6b851b59e219188382899abec8bac24ce3e63",
                          "48.03366597812842", "48.093799976000525"),
        },
    }

    @pytest.mark.dispatch  # one trace digest and test MAE/MSE per kernel key
    @pytest.mark.parametrize("loss_kind", ["pml", "l2", "pml_noreg"])
    def test_short_cell_bits_are_pinned(self, loss_kind):
        want = pinned(self.SHORT_CELL_BITS, kernel_key())[loss_kind]
        cfg = BenchmarkConfig(steps=60, scenes_per_epoch=8, val_count=4, test_count=6, val_every=20)
        run = run_benchmark_cell(cfg, 3001, loss_kind)
        got = (hashlib.sha256(run.result.trace_csv().encode()).hexdigest(),
               repr(run.metrics.mae), repr(run.metrics.mse))
        assert got == want, kernels()


OBSERVATION_BYTES = 64 * 64 * 8  # one default-level observation or ground-truth map


class TestPeakMemory:
    """A cell keeps one step's training scenes and one pair of test scenes alive."""

    def test_cell_peak_does_not_grow_with_the_test_set(self):
        cfg = BenchmarkConfig(steps=40, scenes_per_epoch=8, val_count=2, val_every=20)
        cells = {count: replace(cfg, test_count=count) for count in (2, 200)}
        run_benchmark_cell(cells[2], 5, "pml")  # lazy set-up is not the cell's
        peaks = {count: traced_peak(lambda c=c: run_benchmark_cell(c, 5, "pml"))
                 for count, c in cells.items()}
        growth = (peaks[200] - peaks[2]) / OBSERVATION_BYTES
        print(f"cell peak: {peaks[2] / 2**20:.2f} MiB at 2 test scenes, "
              f"{peaks[200] / 2**20:.2f} MiB at 200, {growth:.1f} observations more")
        assert growth <= 2, f"the cell peak grew by {growth:.1f} observations"

    def test_stream_holds_one_step_while_it_draws_the_next(self):
        cfg = BenchmarkConfig()
        epoch_bytes = 2 * cfg.scenes_per_epoch * OBSERVATION_BYTES  # its two stacks

        def first_epoch_then_the_second():
            batches = train_batches(cfg, 5)
            for _ in range(cfg.steps_per_epoch + 1):
                held = next(batches)  # noqa: F841  (held while the next is drawn, as train does)

        ratio = traced_peak(first_epoch_then_the_second) / epoch_bytes
        print(f"stream peak: {ratio:.3f} epochs of stacks")
        assert ratio <= 0.5, f"stream peak {ratio:.3f} epochs of stacks"

    def test_manifest_hash_holds_one_epoch_of_lines(self):
        cfg = BenchmarkConfig()
        peak = traced_peak(lambda: stream_manifest_hash(cfg, 5))
        text_bytes = len(stream_manifest(cfg, 5))
        print(f"manifest hash peak: {peak / 1024:.1f} KiB, "
              f"the manifest {text_bytes / 1024:.0f} KiB")
        assert peak < 64 * 1024, f"manifest hash peak {peak / 1024:.1f} KiB"
