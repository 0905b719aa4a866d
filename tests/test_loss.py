import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_loss_gradient, random_map_batch
from pml.likelihood import likelihood_with_variances, optimal_variances
from pml.loss import (
    _evaluate,
    _sq_norm,
    _stack,
    alpha_coefficients,
    l2_level,
    l_diff,
    l_diff_pair,
    loss_gradient,
    loss_value_and_gradient,
    pml_loss,
    total_loss,
)
from pml.pyramid import DensityMap, ResolutionSet, downsample_sum, maps_from_batch, residual
from pml.rng import SplitMix64


class TestSqNorm:
    @pytest.mark.parametrize("side", [1, 2, 3, 16, 64, 512])
    def test_equals_mean_of_per_sample_sums_bit_for_bit(self, side):
        rng = SplitMix64(side)
        for batch in range(1, 9):
            x = rng.uniform_block(batch * side * side, -2.0, 2.0).reshape(batch, side, side)
            assert _sq_norm(x) == float(np.mean(np.sum(x * x, axis=(1, 2))))


class TestStack:
    @pytest.mark.parametrize("level", [0, 1, 3, 6])
    def test_equals_difference_of_stacks_bit_for_bit(self, level):
        for batch in (1, 2, 5):
            preds, gts = random_map_batch(60 + level, level, batch, -3.0, 3.0)
            d, got_level = _stack(preds, gts)
            want = np.stack([p.data for p in preds]) - np.stack([g.data for g in gts])
            assert got_level == level
            assert d.shape == want.shape and d.dtype == want.dtype
            assert np.array_equal(d, want)


class TestL2Level:
    def test_perfect_fit_is_zero(self):
        preds, _ = random_map_batch(1, 3, 4)
        assert l2_level(preds, preds, 2) == 0.0

    def test_count_error_at_level_zero(self):
        pred = DensityMap(1, [[4.0, 2.0], [3.0, 1.0]])  # sums to 10
        gt = DensityMap(1, [[1.0, 2.0], [3.0, 1.0]])  # sums to 7
        assert l2_level([pred], [gt], 0) == 9.0

    def test_scaling_residuals_scales_quadratically(self):
        preds, gts = random_map_batch(2, 3, 3)
        base = l2_level(preds, gts, 2)
        scaled = [DensityMap(3, g.data + 3.0 * (p.data - g.data)) for p, g in zip(preds, gts)]
        assert l2_level(scaled, gts, 2) == pytest.approx(9.0 * base, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            l2_level([], [], 0)

    def test_length_mismatch_rejected(self):
        preds, gts = random_map_batch(3, 2, 2)
        with pytest.raises(ValueError, match="differ"):
            l2_level(preds, gts[:1], 0)

    def test_negative_level_rejected(self):
        preds, gts = random_map_batch(3, 2, 2)
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\]"):
            l2_level(preds, gts, -1)

    def test_pair_level_mismatch_rejected(self):
        with pytest.raises(ValueError, match="level"):
            l2_level([DensityMap(1, np.ones((2, 2)))], [DensityMap(0, [[4.0]])], 0)

    def test_mixed_batch_levels_rejected(self):
        a_pred, a_gt = DensityMap(1, [[4, 2], [3, 1]]), DensityMap(1, [[1, 2], [3, 1]])
        b_pred, b_gt = DensityMap(2, np.ones((4, 4))), DensityMap(2, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="single map level"):
            l2_level([a_pred, b_pred], [a_gt, b_gt], 0)

    def test_permutation_invariance(self):
        preds, gts = random_map_batch(4, 4, 8)
        base = l2_level(preds, gts, 3)
        perm = [5, 2, 7, 0, 1, 6, 3, 4]
        shuffled = l2_level([preds[i] for i in perm], [gts[i] for i in perm], 3)
        assert shuffled == pytest.approx(base, rel=1e-12)


class TestLDiff:
    def test_perfect_fit_is_zero(self):
        preds, _ = random_map_batch(5, 3, 2)
        assert l_diff(preds, preds, 2) == 0.0

    def test_hand_evaluated_residual_norm(self):
        # gt spreads unevenly (residual [[1,-1],[-1,1]]), prediction is uniform
        pred = DensityMap(1, np.ones((2, 2)))
        gt = DensityMap(1, [[2.0, 0.0], [0.0, 2.0]])
        assert l_diff([pred], [gt], 1) == 4.0

    def test_level_zero_rejected(self):
        preds, gts = random_map_batch(6, 2, 2)
        with pytest.raises(ValueError, match="no coarser"):
            l_diff(preds, gts, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_subtraction_form_equals_residual_form(self, seed):
        # on a residual with no dominating count error the subtraction form
        # l2(j) - l2(j-1)/4 keeps its digits, so both forms agree
        preds, gts = random_map_batch(100 + seed, 4, 3)
        for j in (1, 2, 3, 4):
            got = l_diff(preds, gts, j)
            subtraction = l2_level(preds, gts, j) - 0.25 * l2_level(preds, gts, j - 1)
            assert got == pytest.approx(subtraction, rel=1e-10)
            oracle = _residual_form_oracle(preds, gts, j - 1, j)
            assert got == pytest.approx(oracle, rel=1e-10)

    def test_general_pair_matches_residual_form(self):
        preds, gts = random_map_batch(42, 4, 2)
        for (a, b) in ((0, 2), (1, 4), (0, 4)):
            got = l_diff_pair(preds, gts, a, b)
            oracle = _residual_form_oracle(preds, gts, a, b)
            assert got == pytest.approx(oracle, rel=1e-10)

    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_never_negative(self, seed, j):
        preds, gts = random_map_batch(seed, 3, 2, low=-5, high=5)
        assert l_diff(preds, gts, j) >= 0.0


def _residual_form_oracle(preds, gts, j1, j2):
    """Batch mean of the squared residual-difference norm, via pyramid ops."""
    vals = []
    for p, g in zip(preds, gts):
        rp = residual(downsample_sum(p, j2), downsample_sum(p, j1))
        rg = residual(downsample_sum(g, j2), downsample_sum(g, j1))
        vals.append(np.sum((rg.data - rp.data) ** 2))
    return float(np.mean(vals))


class TestAlphaCoefficients:
    def test_n1_by_hand(self):
        assert alpha_coefficients(1) == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    def test_n2_by_back_substitution(self):
        assert alpha_coefficients(2) == pytest.approx((2 / 3, 1 / 4, 1 / 12), abs=1e-15)

    def test_matches_linear_solve_oracle(self):
        for n in (1, 2, 3, 5):
            # independent oracle: assemble and solve the full linear system
            rows = [[1.0] * (n + 1)]
            rhs = [1.0]
            for j in range(1, n + 1):
                row = [0.0] * (n + 1)
                for k in range(j, n + 1):
                    row[k] = 4.0 ** j - 4.0 ** (j - 1)
                rows.append(row)
                rhs.append(1.0)
            solved = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
            assert alpha_coefficients(n) == pytest.approx(tuple(solved), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_constraints(self, n):
        alpha = alpha_coefficients(n)
        assert abs(sum(alpha) - 1.0) < 1e-12
        for j in range(1, n + 1):
            assert abs((4.0 ** j - 4.0 ** (j - 1)) * sum(alpha[j:]) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_alpha0_is_two_thirds(self, n):
        assert alpha_coefficients(n)[0] == pytest.approx(2 / 3, abs=1e-13)

    def test_reweighting_identity_on_random_losses(self):
        rng = SplitMix64(77)
        for n in (1, 2, 4, 6):
            alpha = alpha_coefficients(n)
            log_l2_0 = math.log(rng.uniform(0.1, 5.0))
            log_ldiff = [None] + [math.log(rng.uniform(0.1, 5.0)) for _ in range(n)]
            lhs = sum(
                alpha[k]
                * (sum((4.0 ** j - 4.0 ** (j - 1)) * log_ldiff[j] for j in range(1, k + 1)) + log_l2_0)
                for k in range(n + 1)
            )
            rhs = log_l2_0 + sum(log_ldiff[1:][:n])
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            alpha_coefficients(0)


class TestPmlLoss:
    def test_degenerate_n0(self):
        preds, gts = random_map_batch(8, 3, 2)
        bd = pml_loss(preds, gts, 0, 1e-12)
        assert bd.pml == pytest.approx(math.log(l2_level(preds, gts, 0) + 1e-12), rel=1e-15)

    def test_perfect_fit_hits_the_guard(self):
        preds, _ = random_map_batch(9, 4, 2)
        for n in (0, 2, 4):
            bd = pml_loss(preds, preds, n, 1e-12)
            assert bd.pml == pytest.approx((n + 1) * math.log(1e-12), rel=1e-15)

    def test_term_by_term_oracle(self):
        preds, gts = random_map_batch(10, 5, 3)
        n, eps = 4, 1e-12
        bd = pml_loss(preds, gts, n, eps)
        expected = math.log(l2_level(preds, gts, 0) + eps)
        for j in range(1, n + 1):
            expected += math.log(l_diff(preds, gts, j) + eps)
        assert bd.pml == pytest.approx(expected, rel=1e-14)
        assert bd.regularizer == 0.0
        assert bd.total == bd.pml

    def test_n_above_level_rejected(self):
        preds, gts = random_map_batch(11, 2, 2)
        with pytest.raises(ValueError, match="exceeds"):
            pml_loss(preds, gts, 3, 1e-12)

    def test_invalid_epsilon_rejected(self):
        preds, gts = random_map_batch(11, 2, 2)
        with pytest.raises(ValueError, match="epsilon"):
            pml_loss(preds, gts, 1, 0.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_non_positive_epsilon_rejected(self, eps):
        preds, gts = random_map_batch(11, 2, 2)
        for fn in (pml_loss, total_loss, loss_gradient):
            with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
                fn(preds, gts, 1, eps)


class TestTotalLoss:
    def test_perfect_fit(self):
        preds, _ = random_map_batch(12, 4, 2)
        bd = total_loss(preds, preds, 3, 1e-12)
        assert bd.total == pytest.approx(4 * math.log(1e-12), rel=1e-15)
        assert bd.regularizer == 0.0

    def test_single_resolution_structure_at_n0(self):
        preds, gts = random_map_batch(13, 4, 2)
        bd = total_loss(preds, gts, 0, 1e-12)
        expected = math.log(l2_level(preds, gts, 0) + 1e-12) + l2_level(preds, gts, 4)
        assert bd.total == pytest.approx(expected, rel=1e-14)

    def test_recomposition_is_exact(self):
        preds, gts = random_map_batch(14, 5, 3)
        bd = total_loss(preds, gts, 4, 1e-12)
        assert bd.total == bd.pml + bd.regularizer
        assert bd.regularizer == l2_level(preds, gts, 5)

    def test_every_term_nonnegative(self):
        preds, gts = random_map_batch(15, 4, 2, low=-3, high=3)
        bd = total_loss(preds, gts, 3, 1e-12)
        assert all(v >= 0.0 for v in bd.l2_per_level.values())
        assert all(v >= 0.0 for v in bd.ldiff_per_pair.values())

    def test_flat_report_keys(self):
        preds, gts = random_map_batch(16, 3, 2)
        flat = total_loss(preds, gts, 2, 1e-12).to_flat_dict()
        for key in ("l2_level_0", "l2_level_3", "ldiff_1_2", "sigma_sq_0", "pml",
                    "regularizer", "total", "epsilon"):
            assert key in flat


class TestLossGradient:
    def test_zero_at_perfect_fit_with_large_guard(self):
        preds, _ = random_map_batch(17, 3, 2)
        grads = loss_gradient(preds, preds, 2, epsilon=1.0)
        assert all(np.array_equal(g.data, np.zeros_like(g.data)) for g in grads)

    def test_plain_quadratic_part_dominates_under_huge_guard(self):
        preds, gts = random_map_batch(18, 3, 2)
        grads = loss_gradient(preds, gts, 0, epsilon=1e12)
        for g, p, t in zip(grads, preds, gts):
            np.testing.assert_allclose(g.data, 2.0 * (p.data - t.data) / 2.0, atol=1e-9)

    def test_matches_finite_differences(self):
        preds, gts = random_map_batch(19, 5, 2)
        analytic = loss_gradient(preds, gts, 4, 1e-12)
        numeric = fd_loss_gradient(lambda ps: total_loss(ps, gts, 4, 1e-12).total, preds)
        scale = max(np.max(np.abs(g)) for g in numeric)
        err = max(np.max(np.abs(a.data - g)) for a, g in zip(analytic, numeric)) / scale
        assert err < 1e-5

    def test_matches_finite_differences_without_regularizer(self):
        # training's unregularized gradient comes straight from the core
        preds, gts = random_map_batch(20, 4, 2)
        analytic = _evaluate(*_stack(preds, gts), 3, 1e-12, False, True)[1]
        numeric = fd_loss_gradient(lambda ps: pml_loss(ps, gts, 3, 1e-12).pml, preds)
        scale = max(np.max(np.abs(g)) for g in numeric)
        err = max(np.max(np.abs(a - g)) for a, g in zip(analytic, numeric)) / scale
        assert err < 1e-5

    def test_value_and_gradient_agree_with_separate_calls(self):
        preds, gts = random_map_batch(21, 4, 2)
        bd, grads = loss_value_and_gradient(preds, gts, 3, 1e-12)
        assert bd.total == total_loss(preds, gts, 3, 1e-12).total
        separate = loss_gradient(preds, gts, 3, 1e-12)
        for a, b in zip(grads, separate):
            assert np.array_equal(a.data, b.data)

    def test_maps_view_one_locked_batch_with_pinned_bits(self):
        # level 7, batch 3 pools through the strided block sums (7->5 by 4, 5->4 by 2);
        # the digest is the one the gradient had when each map copied its row
        preds, gts = random_map_batch(31, 7, 3, -1.0, 1.0)
        bd, grads = loss_value_and_gradient(preds, gts, 5)
        batch = grads[0].data.base
        assert batch is not None and not batch.flags.writeable
        core = _evaluate(*_stack(preds, gts), 5, bd.epsilon, True, True)[1]
        for b, g in enumerate(grads):
            assert g.data.base is batch and not g.data.flags.writeable
            assert np.array_equal(g.data, core[b])
        assert bd.total == 10959.98393355991
        assert hashlib.sha256(b"".join(g.data.tobytes() for g in grads)).hexdigest() == (
            "02983fee146bcf61fd66ff33be37e8b6f4f905543fa2aebeb4effaaf1548d8c1")


class TestOptimalSigma:
    """``optimal_variances`` against the terms of a ``total_loss`` breakdown."""

    def test_base_level_zero(self):
        preds, gts = random_map_batch(22, 3, 2)
        bd = total_loss(preds, gts, 2, 1e-12)
        sigma = optimal_variances(preds, gts, ResolutionSet.dense(2, 3))
        assert sigma[0] == pytest.approx(bd.l2_per_level[0], rel=1e-15)

    def test_pair_zero_one(self):
        preds, gts = random_map_batch(23, 3, 2)
        bd = total_loss(preds, gts, 1, 1e-12)
        sigma = optimal_variances(preds, gts, ResolutionSet((0, 1, 3)))
        assert sigma[1] == pytest.approx(bd.ldiff_per_pair[(0, 1)] / 3.0, rel=1e-15)

    def test_matches_breakdown_sigma(self):
        preds, gts = random_map_batch(24, 4, 2)
        bd = total_loss(preds, gts, 3, 1e-12)
        assert optimal_variances(preds, gts, ResolutionSet.dense(3, 4)) == bd.sigma_sq

    def test_perfect_fit_uses_guard_and_flags(self):
        preds, _ = random_map_batch(25, 3, 2)
        bd = total_loss(preds, preds, 2, 1e-12)
        assert bd.sigma_guarded
        assert bd.sigma_sq[0] == 1e-12
        assert optimal_variances(preds, preds, ResolutionSet.dense(2, 3)) == bd.sigma_sq

    def test_stationary_under_perturbation(self):
        preds, gts = random_map_batch(26, 4, 2)
        levels = ResolutionSet.dense(3, 4)
        sigma = optimal_variances(preds, gts, levels)
        base = likelihood_with_variances(preds, gts, levels, sigma)
        for j in sigma:
            for factor in (0.9, 0.99, 1.01, 1.1):
                perturbed = dict(sigma)
                perturbed[j] = sigma[j] * factor
                value = likelihood_with_variances(preds, gts, levels, perturbed)
                assert value <= base + 1e-9


class TestPointsTrainingReaches:
    """Terms and gradient where training goes: a near-perfect residual fit
    under a count error, and a pure count offset, at the benchmark level."""

    LEVEL, N, OFFSET = 6, 4, 0.05

    def _batch(self, batch, noise_scale):
        side = 1 << self.LEVEL
        rng = SplitMix64(31)
        gt = rng.uniform_block(batch * side * side).reshape(batch, side, side)
        noise = rng.uniform_block(batch * side * side, -1.0, 1.0).reshape(batch, side, side)
        pred = gt + self.OFFSET + noise_scale * noise
        return maps_from_batch(pred, self.LEVEL), maps_from_batch(gt, self.LEVEL)

    def test_near_fit_ldiff_matches_residual_form(self):
        preds, gts = self._batch(2, 1e-7)
        bd = total_loss(preds, gts, self.N, 1e-12)
        for (a, b), got in bd.ldiff_per_pair.items():
            oracle = _residual_form_oracle(preds, gts, a, b)
            assert oracle > 1e-12  # above eps, so the log guard does not mask the term
            assert got == pytest.approx(oracle, rel=1e-6), (a, b)

    def test_near_fit_gradient_matches_finite_differences(self):
        preds, gts = self._batch(1, 1e-7)
        analytic = loss_gradient(preds, gts, self.N, 1e-12)
        # a step well below the 1e-7 residual, so each log term stays locally quadratic
        numeric = fd_loss_gradient(lambda ps: total_loss(ps, gts, self.N, 1e-12).total, preds,
                                   step_scale=1e-9)
        scale = max(np.max(np.abs(g)) for g in numeric)
        err = max(np.max(np.abs(a.data - g)) for a, g in zip(analytic, numeric)) / scale
        assert err < 1e-5

    def test_pure_count_offset(self):
        preds, gts = self._batch(1, 0.0)
        bd, grads = loss_value_and_gradient(preds, gts, self.N, 1e-12)
        # the residual is flat, so every difference term is zero up to float dust
        assert all(v < 1e-20 for v in bd.ldiff_per_pair.values())
        # what remains is the count term and the regularizer:
        # (2/B) * (1 / (c 4^L) + c) per cell; dust over eps moves it by a few percent
        c = self.OFFSET
        expected = 2.0 * (1.0 / (c * 4.0 ** self.LEVEL) + c)
        np.testing.assert_allclose(grads[0].data, expected, rtol=0.05)


class TestSingleResolutionReduction:
    def test_argmin_matches_plain_l2_along_a_line(self):
        # families through the ground truth: every level's error is quadratic
        # in t with minimum at the ground truth, so the log-scaled total and
        # the un-logged sum share their grid argmin
        rng = SplitMix64(28)
        gt_arr = rng.uniform_block(16).reshape(4, 4)
        direction = rng.uniform_block(16, -1, 1).reshape(4, 4)
        gts = [DensityMap(2, gt_arr)]
        ts = np.linspace(-1.0, 1.0, 41)
        totals, plain = [], []
        for t in ts:
            preds = [DensityMap(2, gt_arr + t * direction)]
            totals.append(total_loss(preds, gts, 0, 1e-12).total)
            plain.append(l2_level(preds, gts, 0) + l2_level(preds, gts, 2))
        assert int(np.argmin(totals)) == int(np.argmin(plain))
