"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they complete.
"""

import math
import time

import numpy as np
import pytest

from conftest import fd_loss_gradient
from pml.cli import main
from pml.likelihood import (
    likelihood_with_variances,
    log_likelihood,
    optimal_variances,
    special_case_likelihood,
    verify_theorem,
)
from pml.loss import alpha_coefficients, l_diff_pair, loss_gradient, total_loss
from pml.metrics import BenchmarkConfig, ablation_run, compare_pml_vs_l2
from pml.pyramid import (
    DensityMap,
    ResolutionSet,
    build_pyramid,
    downsample_avg,
    downsample_sum,
    residual,
)
from pml.rng import SplitMix64


def _report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def _random_batch(rng, level, batch, low=0.0, high=1.0):
    side = 1 << level
    pred = rng.uniform_block(batch * side * side, low, high).reshape(batch, side, side)
    gt = rng.uniform_block(batch * side * side, low, high).reshape(batch, side, side)
    return [DensityMap(level, p) for p in pred], [DensityMap(level, g) for g in gt]


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_ldiff_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        rng = SplitMix64(10_000 + trial)
        level = rng.randint(1, 6)
        preds, gts = _random_batch(rng, level, 2)
        j2 = rng.randint(1, level)
        j1 = rng.randint(0, j2 - 1)
        subtraction = l_diff_pair(preds, gts, j1, j2)
        vals = []
        for p, g in zip(preds, gts):
            rp = residual(downsample_sum(p, j2), downsample_sum(p, j1))
            rg = residual(downsample_sum(g, j2), downsample_sum(g, j1))
            vals.append(np.sum((rg.data - rp.data) ** 2))
        residual_form = float(np.mean(vals))
        worst = max(worst, _rel(subtraction, residual_form))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "difference-loss identity over 1000 batches", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(lvl, n) for lvl in (3, 4, 5) for n in range(5) if n <= lvl]
    for i in range(50):
        level, n = cases[i % len(cases)]
        rng = SplitMix64(20_000 + i)
        preds, gts = _random_batch(rng, level, 2)
        analytic = loss_gradient(preds, gts, n)
        numeric = fd_loss_gradient(lambda ps: total_loss(ps, gts, n).total, preds)
        err = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    _report(2, "analytic gradient vs central differences (50 instances)", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 60.0


def test_criterion_3_theorem_refinement():
    t0 = time.perf_counter()
    report = verify_theorem(trials=1000, seed=42, level=5, n_k=3)
    elapsed = time.perf_counter() - t0
    ok = report.violations == 0 and elapsed < 30.0
    _report(3, "dense refinement never scores lower (1000 trials)", ok,
            f"violations {report.violations}, {elapsed:.1f}s")
    assert report.violations == 0
    assert elapsed < 30.0


def test_criterion_4_variance_stationarity():
    worst = -np.inf
    for i in range(100):
        rng = SplitMix64(30_000 + i)
        level = rng.randint(3, 5)
        preds, gts = _random_batch(rng, level, 2)
        subs = sorted({rng.randint(0, level - 1) for _ in range(3)} | {0})
        levels = ResolutionSet(tuple(subs) + (level,))
        sigma = optimal_variances(preds, gts, levels)
        base = likelihood_with_variances(preds, gts, levels, sigma)
        for j in sigma:
            for factor in (0.99, 1.01, 0.9, 1.1):
                perturbed = dict(sigma)
                perturbed[j] = sigma[j] * factor
                worst = max(worst, likelihood_with_variances(preds, gts, levels, perturbed) - base)
    ok = worst <= 1e-9
    _report(4, "closed-form variances are stationary (100 instances)", ok,
            f"max likelihood increase {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_5_alpha_system():
    ok = True
    for n in range(1, 9):
        alpha = alpha_coefficients(n)
        ok &= abs(sum(alpha) - 1.0) < 1e-12
        for j in range(1, n + 1):
            ok &= abs((4.0 ** j - 4.0 ** (j - 1)) * sum(alpha[j:]) - 1.0) < 1e-12
        ok &= abs(alpha[0] - 2.0 / 3.0) < 1e-12
    rng = SplitMix64(40_000)
    for n in range(1, 9):
        alpha = alpha_coefficients(n)
        log_base = math.log(rng.uniform(0.05, 20.0))
        log_diffs = [None] + [math.log(rng.uniform(0.05, 20.0)) for _ in range(n)]
        lhs = sum(
            alpha[k]
            * (sum((4.0 ** j - 4.0 ** (j - 1)) * log_diffs[j] for j in range(1, k + 1)) + log_base)
            for k in range(n + 1)
        )
        rhs = log_base + sum(log_diffs[1:][:n])
        ok &= abs(lhs - rhs) < 1e-10
    _report(5, "resolution-weight system for n=1..8", ok)
    assert ok


def test_criterion_6_specialization_equality():
    worst = 0.0
    for seed in range(20):
        rng = SplitMix64(50_000 + seed)
        preds, gts = _random_batch(rng, 6, 2)
        for n in range(6):
            collapsed = special_case_likelihood(preds, gts, n).loglik
            general = log_likelihood(preds, gts, ResolutionSet.dense(n, 6)).loglik
            worst = max(worst, _rel(collapsed, general))
    ok = worst < 1e-10
    _report(6, "collapsed dense-set form equals general form (n <= 5)", ok,
            f"max rel err {worst:.2e}")
    assert worst < 1e-10


def test_criterion_7_conservation_and_residual_prior():
    t0 = time.perf_counter()
    worst_sum = 0.0
    worst_prior = 0.0
    for trial in range(1000):
        rng = SplitMix64(60_000 + trial)
        level = rng.randint(1, 6)
        side = 1 << level
        m = DensityMap(level, rng.uniform_block(side * side, -2.0, 5.0).reshape(side, side))
        pyr = build_pyramid(m, range(level + 1))
        total = m.total()
        for lvl_map in pyr:
            worst_sum = max(worst_sum, abs(lvl_map.total() - total) / max(1.0, abs(total)))
        coarse_level = rng.randint(0, level - 1)
        r = residual(m, downsample_sum(m, coarse_level))
        avg = downsample_avg(DensityMap(level, r.data), coarse_level)
        worst_prior = max(worst_prior, float(np.max(np.abs(avg.data))))
    elapsed = time.perf_counter() - t0
    ok = worst_sum < 1e-12 and worst_prior < 1e-10
    _report(7, "count conservation and residual prior (1000 maps)", ok,
            f"sum rel {worst_sum:.2e}, prior abs {worst_prior:.2e}, {elapsed:.1f}s")
    assert worst_sum < 1e-12
    assert worst_prior < 1e-10


@pytest.mark.dispatch  # each dispatch's bits train differently; README has both tables
def test_criterion_8_training_benefit():
    t0 = time.perf_counter()
    cfg = BenchmarkConfig()
    assert cfg.level == 6 and cfg.steps == 2000 and cfg.test_count == 200

    pairs = compare_pml_vs_l2([101, 202, 303], cfg)
    assert [(p.loss_kind, q.loss_kind) for p, q in pairs] == [("pml", "l2")] * 3
    mean_pml = float(np.mean([p.metrics.mae for p, _ in pairs]))
    mean_l2 = float(np.mean([q.metrics.mae for _, q in pairs]))
    per_seed = ", ".join(f"seed {p.base_seed}: {p.metrics.mae:.2f} vs {q.metrics.mae:.2f}"
                         for p, q in pairs)
    print(f"\n  PML vs plain L2 test MAE -> {per_seed}")

    [sweep] = ablation_run(base_seed=7, n_values=[0, 1, 2, 3, 4, 5], repeats=1, cfg=cfg)
    reg_mae = [r.metrics.mae for r in sweep if r.with_regularizer]
    noreg_mae = [r.metrics.mae for r in sweep if not r.with_regularizer]
    cells = {(r.n, r.with_regularizer) for r in sweep}
    assert (4, True) in cells and (4, False) in cells
    mean_reg = float(np.mean(reg_mae))
    mean_noreg = float(np.mean(noreg_mae))
    print(f"  n-sweep mean MAE -> regularized {mean_reg:.2f}, unregularized {mean_noreg:.2f}")

    elapsed = time.perf_counter() - t0
    ok = mean_pml <= mean_l2 and mean_reg <= mean_noreg and elapsed < 600.0
    _report(8, "desk-scale benefit (3 seeds + n-sweep)", ok,
            f"PML {mean_pml:.2f} <= L2 {mean_l2:.2f}; reg {mean_reg:.2f} <= noreg {mean_noreg:.2f}; "
            f"{elapsed:.0f}s")
    assert mean_pml <= mean_l2
    assert mean_reg <= mean_noreg
    assert elapsed < 600.0


@pytest.mark.dispatch  # the loss must fall on each dispatch's training bits
def test_criterion_8b_training_loss_decreases():
    # 2000-step smoke on the default benchmark: both loss kinds end lower
    from pml.metrics import run_benchmark_cell

    cfg = BenchmarkConfig()
    ok = True
    details = []
    for kind in ("pml", "l2"):
        run = run_benchmark_cell(cfg, 404, kind)
        first, last = run.result.rows[0].loss, run.result.rows[-1].loss
        ok &= last < first
        details.append(f"{kind} {first:.2f} -> {last:.2f}")
    _report("8b", "2000-step smoke: final loss below initial", ok, "; ".join(details))
    assert ok


def test_criterion_9_byte_identical_outputs(tmp_path):
    paths = [tmp_path / name for name in ("t1.csv", "t2.csv", "v1.csv", "v2.csv")]
    demo = ["train-demo", "--seed", "5", "--steps", "40", "--loss", "pml", "--out"]
    theorem = ["verify-theorem", "--trials", "100", "--seed", "6", "--level", "5",
               "--nk", "3", "--out"]
    assert main(demo + [str(paths[0])]) == 0
    assert main(demo + [str(paths[1])]) == 0
    assert main(theorem + [str(paths[2])]) == 0
    assert main(theorem + [str(paths[3])]) == 0
    demo_same = paths[0].read_bytes() == paths[1].read_bytes()
    theorem_same = paths[2].read_bytes() == paths[3].read_bytes()
    ok = demo_same and theorem_same
    _report(9, "train-demo and verify-theorem emit byte-identical CSVs", ok)
    assert ok
