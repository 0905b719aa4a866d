import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float64_dispatch
from pml import metrics
from pml.metrics import (
    _TEST,
    _TRAIN,
    BenchmarkConfig,
    _fixed_scenes,
    ablation_run,
    evaluate,
    run_benchmark_cell,
    stream_manifest,
    stream_manifest_hash,
)
from pml.pyramid import DensityMap
from pml.rng import derive_seed

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
          for name in ("steps", "channels", "batch", "scenes_per_epoch", "test_count")
          for value in (0, -1)),
        *(({name: -1}, f"{name} must be >= 0, got -1") for name in ("val_count", "val_every")),
        ({"n": -1}, "n must be >= 0, got -1"),
        ({"n": 7}, "n = 7 exceeds prediction level 6"),
        # a NaN clip_norm once turned clipping off without a word
        ({"steps": 20, "clip_norm": math.nan, "val_count": 2, "test_count": 2},
         "clip_norm must be finite and >= 0, got nan"),
    ])
    def test_invalid_set_up_rejected(self, build, changes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(**changes)

    def test_boundary_values_accepted(self):
        cfg = BenchmarkConfig(lr=0.0, clip_norm=0.0, val_count=0, val_every=0, n=6)
        assert replace(cfg, n=0, steps=1, batch=1, scenes_per_epoch=1, test_count=1).n == 0


class TestStreams:
    def test_manifest_covers_planned_epochs(self):
        manifest = stream_manifest(TINY, 5)
        assert len(manifest.strip().splitlines()) == TINY.epochs * TINY.scenes_per_epoch

    def test_manifest_hash_depends_on_seed(self):
        assert stream_manifest_hash(TINY, 1) != stream_manifest_hash(TINY, 2)

    def test_manifest_hash_stable(self):
        assert stream_manifest_hash(TINY, 1) == stream_manifest_hash(TINY, 1)

    @pytest.mark.parametrize("cfg", [TINY, BenchmarkConfig(steps=40)])
    def test_manifest_lines_are_each_scene_configs_json(self, cfg):
        seed = derive_seed(9, _TRAIN)
        want = [json.dumps(cfg.scene_config(derive_seed(seed, epoch, i)).__dict__, sort_keys=True)
                for epoch in range(cfg.epochs) for i in range(cfg.scenes_per_epoch)]
        assert stream_manifest(cfg, 9) == "\n".join(want) + "\n"

    def test_benchmark_manifest_is_pinned(self):
        # every scene config of the default benchmark stream; JSON, so BLAS-independent
        assert stream_manifest_hash(BenchmarkConfig(), 3001) == (
            "1b50abe3e0a28edf71702c0252b11dc824774073a954a4462a9a8cff1f828ed5"
        )


class TestAblation:
    def test_single_cell_matches_direct_run(self):
        table = ablation_run(3, [1], repeats=1, cfg=TINY)  # TINY.n is 2
        assert len(table.rows) == 2
        for row, reg in zip(table.rows, (True, False)):
            direct = run_benchmark_cell(replace(TINY, n=1), derive_seed(3, 0), "pml",
                                        with_regularizer=reg)
            assert row.with_regularizer == reg
            assert row.mae == direct.metrics.mae
            assert row.mse == direct.metrics.mse

    def test_reg_on_and_off_cells_present(self):
        table = ablation_run(4, [2], repeats=1, cfg=TINY)
        assert [r.cell for r in table.rows] == ["n=2,reg=on", "n=2,reg=off"]

    def test_stream_hash_identical_across_cells(self):
        table = ablation_run(5, [1, 2], repeats=2, cfg=TINY)
        by_repeat = {}
        for r in table.rows:
            by_repeat.setdefault(r.repeat, set()).add(r.stream_hash)
        assert all(len(hashes) == 1 for hashes in by_repeat.values())
        assert by_repeat[0] != by_repeat[1]

    def test_deterministic(self):
        a = ablation_run(6, [1], repeats=1, cfg=TINY)
        b = ablation_run(6, [1], repeats=1, cfg=TINY)
        assert a == b

    def test_csv_layout(self):
        table = ablation_run(7, [0], repeats=1, cfg=TINY)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "cell,repeat,mae,mse"
        assert len(lines) == 3

    def test_summary_means(self):
        table = ablation_run(8, [0], repeats=2, cfg=TINY)
        summary = table.summary()
        maes = [r.mae for r in table.rows if r.with_regularizer]
        assert summary["n=0,reg=on"][0] == pytest.approx(np.mean(maes))

    def test_n_out_of_range_rejected(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("the sweep trained before checking every n")

        monkeypatch.setattr(metrics, "train", no_training)
        message = f"n = {TINY.level + 1} exceeds prediction level {TINY.level}"
        with pytest.raises(ValueError, match=message):
            ablation_run(9, [1, TINY.level + 1], cfg=TINY)

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

    def test_test_scores_equal_single_scene_evaluate(self):
        # an odd count leaves a one-scene tail in the two-per-forward pass
        cfg = replace(TINY, test_count=5)
        run = run_benchmark_cell(cfg, 13, "pml")
        scenes = _fixed_scenes(cfg, 13, _TEST, cfg.test_count)
        want = evaluate([run.result.model.forward(s.observation) for s in scenes],
                        [s.gt_map for s in scenes])
        assert run.metrics == want

    # sha256 of trace_csv() and repr of the test (MAE, MSE) of a short seed-3001 cell, per
    # float64 dispatch: training bits are part of the determinism contract, so a change
    # here is declared. The forward's softplus follows numpy's exp/log1p kernels
    SHORT_CELL_BITS = {
        "avx512": {
            "pml": ("cdf99c6ed21cb36a3746bc47c046e2f5da541604ca513c829b45c7d9d03be7b0",
                    "61.06167374890922", "61.189177838595946"),
            "l2": ("a84bd200d56b1826b300ba2af8eb273e1491c17d4f171a41f97cdb7b83746bb3",
                   "50.25522939498452", "50.325770667630636"),
        },
        "libm": {
            "pml": ("d26be1c13d628194859a1a7a7de7bcadf4881507a64463648828a14bd9b87e68",
                    "61.061673748909236", "61.18917783859596"),
            "l2": ("42893f1c162b64566296ff8258cad7ebb41909da6cc2fb45992248a6cfeac68c",
                   "50.25522939498452", "50.325770667630636"),
        },
    }

    @pytest.mark.parametrize("loss_kind", ["pml", "l2"])
    def test_short_cell_bits_are_pinned(self, loss_kind):
        dispatch = float64_dispatch()
        assert dispatch in self.SHORT_CELL_BITS, f"no pinned training bits for numpy's {dispatch}"
        cfg = BenchmarkConfig(steps=60, scenes_per_epoch=8, val_count=4, test_count=6, val_every=20)
        run = run_benchmark_cell(cfg, 3001, loss_kind)
        got = (hashlib.sha256(run.result.trace_csv().encode()).hexdigest(),
               repr(run.metrics.mae), repr(run.metrics.mse))
        assert got == self.SHORT_CELL_BITS[dispatch][loss_kind], f"float64 dispatch: {dispatch}"
