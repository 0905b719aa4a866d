import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from conftest import numpy_versions, random_map_batch
from pml.cli import main
from pml.likelihood import (
    THEOREM_SLACK,
    LikelihoodReport,
    likelihood_with_variances,
    log_likelihood,
    optimal_variances,
    special_case_likelihood,
    verify_theorem,
)
from pml.loss import DEFAULT_EPSILON, l2_level
from pml.metrics import _TEST, BenchmarkConfig, run_benchmark_cell
from pml.pyramid import DensityMap, ResolutionSet
from pml.rng import SplitMix64, derive_seed
from pml.synth import generate_scene

# the verify-theorem CSV and the log-likelihood and special-case reports are pinned by digest
pytestmark = pytest.mark.dispatch

EPS = DEFAULT_EPSILON


def _near_fit_batch(seed, level=6, batch=2, delta=1e-3):
    rng = SplitMix64(seed)
    side = 1 << level
    gt = rng.uniform_block(batch * side * side).reshape(batch, side, side)
    noise = rng.uniform_block(batch * side * side, -1.0, 1.0).reshape(batch, side, side)
    return [DensityMap(level, p) for p in gt + delta * noise], [DensityMap(level, g) for g in gt]


def _from_scratch_oracle(preds, gts, sub_levels, eps):
    """Independent re-evaluation of the variance-profiled form with local
    block-sum pooling (no pyramid module)."""

    def pool(arr, level, target):
        side = 1 << target
        f = (1 << level) // side
        out = np.zeros((side, side))
        for r in range(side):
            for c in range(side):
                out[r, c] = arr[r * f:(r + 1) * f, c * f:(c + 1) * f].sum()
        return out

    level = preds[0].level

    def sq_err(i):
        return np.mean([
            np.sum((pool(p.data, level, i) - pool(g.data, level, i)) ** 2)
            for p, g in zip(preds, gts)
        ])

    n_k = sub_levels[-1]
    total = -0.5 * (2.0 * math.pi - 1.0) * 4.0 ** n_k
    for a, b in zip(sub_levels, sub_levels[1:]):
        ld = sq_err(b) - 4.0 ** (a - b) * sq_err(a)
        delta = 4.0 ** b - 4.0 ** a
        total += -0.5 * delta * math.log(4.0 ** b * ld / delta + eps)
    total += -0.5 * 4.0 ** sub_levels[0] * math.log(sq_err(sub_levels[0]) + eps)
    return total


class TestLogLikelihood:
    def test_two_level_set_reduces_to_base_term(self):
        preds, gts = random_map_batch(30, 4, 2)
        report = log_likelihood(preds, gts, ResolutionSet((0, 4)))
        expected = -0.5 * (2.0 * math.pi - 1.0) - 0.5 * math.log(l2_level(preds, gts, 0) + EPS)
        assert report.loglik == pytest.approx(expected, rel=1e-14)
        assert report.terms == {}

    def test_matches_from_scratch_oracle(self):
        preds, gts = random_map_batch(31, 4, 2)
        for subs in ((0, 2), (0, 1, 3), (1, 2), (2, 3)):
            got = log_likelihood(preds, gts, ResolutionSet(subs + (4,))).loglik
            oracle = _from_scratch_oracle(preds, gts, subs, EPS)
            assert got == pytest.approx(oracle, rel=1e-12)

    def test_report_parts_sum_to_total(self):
        preds, gts = random_map_batch(32, 5, 2)
        report = log_likelihood(preds, gts, ResolutionSet((0, 2, 3, 5)))
        recomposed = report.constant_part + report.base_term + sum(report.terms.values())
        assert report.loglik == pytest.approx(recomposed, rel=1e-15)
        assert set(report.terms) == {(0, 2), (2, 3)}

    def test_no_sub_levels_rejected(self):
        preds, gts = random_map_batch(33, 3, 2)
        with pytest.raises(ValueError, match="sub-level"):
            log_likelihood(preds, gts, ResolutionSet((3,)))

    def test_set_above_map_level_rejected(self):
        preds, gts = random_map_batch(34, 3, 2)
        with pytest.raises(ValueError, match="level"):
            log_likelihood(preds, gts, ResolutionSet((0, 5)))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            log_likelihood([], [], ResolutionSet((0, 3)))

    def test_non_integer_level_rejected(self):
        # it once scored the set {0, 2, 3} without a word
        preds, gts = random_map_batch(35, 3, 2)
        with pytest.raises(ValueError, match="^levels must be an integer, got 2.5$"):
            log_likelihood(preds, gts, [0, 2.5, 3])

    def test_reports_are_pinned_through_the_strided_block_sums(self):
        # level 7, batch 3 pools through the strided block sums (7->5 by 4, 5->2 by 8,
        # 5->4 by 2); the digest pins every float of both reports
        preds, gts = random_map_batch(31, 7, 3, -1.0, 1.0)
        reports = [log_likelihood(preds, gts, s) for s in ((2, 5, 7), ResolutionSet.dense(5, 7))]
        text = repr([(r.loglik, sorted(r.terms.items()), r.base_term, r.constant_part)
                     for r in reports])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0b96b4096bfd8ed0e65d94ff4b4af1149ec47d080bbf657bdfd3f61ca343c3da"), numpy_versions()


@pytest.mark.parametrize("evaluate", [
    lambda p, g, levels: log_likelihood(p, g, levels),
    lambda p, g, levels: optimal_variances(p, g, levels),
    lambda p, g, levels: likelihood_with_variances(p, g, levels, {0: 1.0, 1: 1.0}),
], ids=["log_likelihood", "optimal_variances", "likelihood_with_variances"])
def test_every_entry_point_rejects_a_set_above_the_map_level(evaluate):
    preds, gts = random_map_batch(43, 3, 2)
    with pytest.raises(ValueError, match="resolution set reaches level 5, maps are level 3"):
        evaluate(preds, gts, (0, 1, 5))


class TestSpecialCaseLikelihood:
    def test_n0_reduces_to_base_term(self):
        preds, gts = random_map_batch(35, 4, 2)
        report = special_case_likelihood(preds, gts, 0)
        expected = -0.5 * (2.0 * math.pi - 1.0) - 0.5 * math.log(l2_level(preds, gts, 0) + EPS)
        assert report.loglik == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", range(6))
    def test_equals_general_form_on_dense_set(self, n):
        preds, gts = random_map_batch(36, 6, 2)
        collapsed = special_case_likelihood(preds, gts, n).loglik
        general = log_likelihood(preds, gts, ResolutionSet.dense(n, 6)).loglik
        assert collapsed == pytest.approx(general, rel=1e-10)

    def test_monotone_refinement_near_fit(self):
        # adding one more measured level also adds a constant penalty, so the
        # value can only grow when the difference losses are small; near-fit
        # batches are in that regime
        for seed in range(100):
            preds, gts = _near_fit_batch(seed)
            vals = [special_case_likelihood(preds, gts, n).loglik for n in range(6)]
            assert np.all(np.diff(vals) >= -1e-9), f"seed {seed}: {vals}"

    def test_reports_are_pinned(self):
        # n = 0..5 on a level-6 and a level-7 batch; the digest pins every float of the reports
        reports = []
        for seed, level, batch in ((39, 6, 2), (40, 7, 3)):
            preds, gts = random_map_batch(seed, level, batch, -1.0, 1.0)
            reports += [special_case_likelihood(preds, gts, n) for n in range(6)]
        text = repr([(r.loglik, sorted(r.terms.items()), r.base_term, r.constant_part)
                     for r in reports])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "36d47bb3158e82612aca842aa8b2bc90594862ce0f04a0fe528d757dfbc3d394"), numpy_versions()

    def test_negative_n_rejected(self):
        preds, gts = random_map_batch(37, 3, 2)
        with pytest.raises(ValueError):
            special_case_likelihood(preds, gts, -1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            special_case_likelihood([], [], 1)


class TestVerifyTheorem:
    def test_hundred_trials_no_violations(self):
        report = verify_theorem(trials=100, seed=42, level=5, n_k=3)
        assert report.violations == 0
        assert len(report.trials) == 100

    def test_identical_sets_give_exactly_zero_diff(self):
        report = verify_theorem(trials=200, seed=7, level=4, n_k=2)
        dense = tuple(range(3)) + (4,)
        matching = [t for t in report.trials if t.sparse_levels == dense]
        assert matching, "no trial drew the dense set itself"
        assert all(t.diff == 0.0 for t in matching)

    def test_sparse_vs_dense_example(self):
        preds, gts = random_map_batch(38, 5, 2)
        sparse = log_likelihood(preds, gts, ResolutionSet((3, 5))).loglik
        dense = log_likelihood(preds, gts, ResolutionSet((0, 1, 2, 3, 5))).loglik
        assert dense >= sparse - 1e-9

    def test_violations_are_counted_from_the_trials(self, capsys, monkeypatch):
        # a report whose trials are replaced recounts, and the CLI's exit code follows it
        report = verify_theorem(trials=4, seed=11, level=4, n_k=2)
        assert report.violations == 0
        flipped = tuple(dataclasses.replace(t, violated=True) for t in report.trials[:3])
        bad = dataclasses.replace(report, trials=flipped + report.trials[3:])
        assert bad.violations == 3
        monkeypatch.setattr("pml.cli.verify_theorem", lambda *args: bad)
        assert main(["verify-theorem", "--trials", "4", "--seed", "11", "--level", "4",
                     "--nk", "2"]) == 2
        assert "violations: 3" in capsys.readouterr().out

    def test_deterministic_per_seed(self):
        a = verify_theorem(trials=20, seed=3, level=4, n_k=2)
        b = verify_theorem(trials=20, seed=3, level=4, n_k=2)
        assert a == b

    def test_csv_shape(self):
        report = verify_theorem(trials=3, seed=1, level=3, n_k=1)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "trial,loglik_N,loglik_Nprime,diff,violated"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_cli_csv_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "theorem.csv"
        assert main(["verify-theorem", "--trials", "100", "--seed", "6", "--level", "5",
                     "--nk", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d2fd6329f85231803715c830df35923a3085179fb0bf3391cc20c06016541c10"
        ), numpy_versions()

    def test_refinement_holds_on_trained_residuals(self):
        # the theorem on the residuals training reaches, not only on uniform
        # noise: a briefly trained level-4 benchmark model and its test scenes
        cfg = BenchmarkConfig(level=4, channels=2, n=2, steps=200, scenes_per_epoch=4,
                              val_count=2, test_count=16, val_every=200)
        model = run_benchmark_cell(cfg, 21, "pml").result.model
        seed = derive_seed(21, _TEST)
        test = [generate_scene(cfg.scene_config(derive_seed(seed, i))) for i in range(16)]
        preds = [model.forward(s.observation) for s in test]
        gts = [s.gt_map for s in test]
        dense = log_likelihood(preds, gts, (0, 1, 2, 3, 4)).loglik
        subsets = [c for k in range(4) for c in itertools.combinations((0, 1, 2), k)]
        assert len(subsets) == 8
        for subs in subsets:
            sparse = log_likelihood(preds, gts, subs + (3, 4)).loglik
            assert dense >= sparse - THEOREM_SLACK, f"{subs}: {dense!r} < {sparse!r}"

    @pytest.mark.parametrize("level, n_k, batch", [(2, 1, 1), (6, 4, 3)])
    def test_trials_equal_separate_map_and_selector_draws(self, level, n_k, batch):
        # a trial draws its maps and its selectors in one block; drawing the
        # maps as a block and each selector with ``uniform`` gives the same trial
        side = 1 << level
        report = verify_theorem(trials=12, seed=500 + level, level=level, n_k=n_k, batch=batch)
        dense = ResolutionSet.dense(n_k, level)
        for t in report.trials:
            rng = SplitMix64(500 + level + t.trial)
            pred, gt = rng.uniform_block(2 * batch * side * side).reshape(2, batch, side, side)
            subs = tuple(i for i in range(n_k) if rng.uniform() < 0.5) + (n_k, level)
            assert t.sparse_levels == subs
            assert t.loglik_sparse == log_likelihood(list(pred), list(gt), subs).loglik
            assert t.loglik_dense == log_likelihood(list(pred), list(gt), dense).loglik
        assert len({t.sparse_levels for t in report.trials}) > 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_theorem(trials=0, seed=1, level=4, n_k=2)
        with pytest.raises(ValueError):
            verify_theorem(trials=1, seed=1, level=4, n_k=4)
        with pytest.raises(ValueError):
            verify_theorem(trials=1, seed=1, level=4, n_k=0)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_must_be_positive(self, batch):
        # checked up front, not from the empty batch after the draw
        with pytest.raises(ValueError, match=rf"^batch must be >= 1, got {batch}$"):
            verify_theorem(trials=1, seed=1, level=4, n_k=2, batch=batch)


class TestVarianceStationarity:
    @pytest.mark.parametrize("subs", [(0, 1, 2), (0, 2), (1, 3), (0, 1, 2, 3)])
    def test_closed_form_is_a_maximum(self, subs):
        for seed in range(5):
            preds, gts = random_map_batch(500 + seed, 4, 2)
            levels = ResolutionSet(subs + (4,))
            sigma = optimal_variances(preds, gts, levels)
            base = likelihood_with_variances(preds, gts, levels, sigma)
            for j in sigma:
                for factor in (0.9, 0.99, 1.01, 1.1):
                    perturbed = dict(sigma)
                    perturbed[j] = sigma[j] * factor
                    got = likelihood_with_variances(preds, gts, levels, perturbed)
                    assert got <= base + 1e-9

    def test_profiled_form_is_the_variance_optimum_plus_reparametrization(self):
        # the profiled evaluation and the variance-dependent evaluation at the
        # optimum differ only by terms independent of the loss values for a
        # fixed resolution set; check stationarity connects them directionally
        preds, gts = random_map_batch(39, 4, 2)
        levels = ResolutionSet((0, 1, 4))
        sigma = optimal_variances(preds, gts, levels)
        at_opt = likelihood_with_variances(preds, gts, levels, sigma)
        worse = dict(sigma)
        worse[1] *= 2.0
        assert likelihood_with_variances(preds, gts, levels, worse) < at_opt

    def test_perfect_fit_falls_back_to_epsilon(self):
        preds, _ = random_map_batch(42, 3, 2)
        sigma = optimal_variances(preds, preds, ResolutionSet((1, 2, 3)))
        assert sigma == {0: EPS / 4.0, 1: EPS / 12.0}

    def test_perfect_fit_logs_the_guard(self):
        # a perfect fit makes every term zero, so only the guard stands
        # between the log and a bare math domain error
        preds, _ = random_map_batch(42, 3, 2)
        reports = (log_likelihood(preds, preds, ResolutionSet((1, 2, 3))),
                   log_likelihood(preds, preds, ResolutionSet.dense(2, 3)),
                   special_case_likelihood(preds, preds, 2))
        for report in reports:
            subs = report.resolution_set.sub_levels
            want = -0.5 * (2.0 * math.pi - 1.0) * 4.0 ** subs[-1]
            want += -0.5 * 4.0 ** subs[0] * math.log(EPS)
            for a, b in zip(subs, subs[1:]):
                want += -0.5 * (4.0 ** b - 4.0 ** a) * math.log(EPS)
            assert report.loglik == want

    @pytest.mark.parametrize("levels, sigma_sq, message", [
        ((0, 3), {0: 0.0}, "sigma_sq[0] must be finite and > 0, got 0.0"),
        ((0, 1, 3), {0: 1.0, 1: 0.0}, "sigma_sq[1] must be finite and > 0, got 0.0"),
        ((0, 1, 3), {0: 1.0, 1: -1.0}, "sigma_sq[1] must be finite and > 0, got -1.0"),
        ((0, 1, 3), {0: 1.0, 1: math.nan}, "sigma_sq[1] must be finite and > 0, got nan"),
        # an infinite variance once gave a log-likelihood of -inf
        ((0, 1, 3), {0: math.inf, 1: 1.0}, "sigma_sq[0] must be finite and > 0, got inf"),
    ])
    def test_invalid_sigma_rejected(self, levels, sigma_sq, message):
        preds, gts = random_map_batch(40, 3, 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            likelihood_with_variances(preds, gts, ResolutionSet(levels), sigma_sq)


def test_report_is_frozen():
    preds, gts = random_map_batch(41, 3, 2)
    report = log_likelihood(preds, gts, ResolutionSet((0, 3)))
    assert isinstance(report, LikelihoodReport)
    with pytest.raises(AttributeError):
        report.loglik = 0.0
