import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_loss_gradient, random_map_batch
from pml.likelihood import (
    likelihood_with_variances,
    log_likelihood,
    optimal_variances,
    special_case_likelihood,
)
from pml.loss import (
    DEFAULT_EPSILON,
    _evaluate,
    _sq_norm,
    _stack,
    _terms,
    alpha_coefficients,
    l2_level,
    l_diff,
    l_diff_pair,
    loss_gradient,
    loss_value_and_gradient,
    pml_loss,
    total_loss,
)
from pml.pyramid import DensityMap, ResolutionSet, _replicate, downsample_sum, residual
from pml.rng import SplitMix64

# the gradient digest and the near-fit and pure-count-offset terms and gradients
pytestmark = pytest.mark.dispatch


class TestSqNorm:
    @pytest.mark.parametrize("side", [1, 2, 3, 16, 64, 512])
    def test_equals_mean_of_per_sample_sums_bit_for_bit(self, side):
        rng = SplitMix64(side)
        for batch in range(1, 9):
            x = rng.uniform_block(batch * side * side, -2.0, 2.0).reshape(batch, side, side)
            assert _sq_norm(x) == float(np.mean(np.sum(x * x, axis=(1, 2))))

    @pytest.mark.parametrize("batch", [1, 3, 17])
    def test_slabs_equal_the_whole_batch_sum(self, batch):
        # above _SLAB_CELLS the squares are summed a slab at a time, and a level-9 or
        # level-10 map's slab sums are added in halves; level 10 at 17 maps is left out
        rng = np.random.default_rng(240 + batch)
        for level in range(11 if batch < 17 else 10):
            shape = (batch, 1 << level, 1 << level)
            x = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 61, shape))
            assert _sq_norm(x) == float(np.mean(np.sum(x * x, axis=(1, 2))))
            # a transposed batch keeps numpy's expression, which sums in memory order
            t = x.transpose(0, 2, 1)
            assert _sq_norm(t) == float(np.mean(np.sum(t * t, axis=(1, 2))))

    def test_thirty_two_slabs_of_one_map_are_added_in_halves(self):
        # a level-11 map is 32 slabs, the first count whose pairwise sum is not also the
        # plain reduction of the slab sums (numpy's 8 accumulators take 2 or 8 of them
        # whole); on this map that reduction is one rounding off
        x = np.random.default_rng(250).standard_normal((1, 2048, 2048))
        assert _sq_norm(x) == float(np.mean(np.sum(x * x, axis=(1, 2))))


class TestStack:
    @pytest.mark.parametrize("level", [0, 1, 3, 6])
    def test_equals_difference_of_stacks_bit_for_bit(self, level):
        for batch in (1, 2, 5):
            preds, gts = random_map_batch(60 + level, level, batch, -3.0, 3.0)
            d = _stack(preds, gts)
            want = np.stack([p.data for p in preds]) - np.stack([g.data for g in gts])
            assert d.shape == want.shape and d.dtype == want.dtype
            assert np.array_equal(d, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("level", [0, 3, 7])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_array_path_equals_sequence_path_bit_for_bit(self, dtype, level, batch):
        # two arrays of one shape are checked once and subtracted in one call;
        # a sequence of their maps goes through the per-pair loop
        side = 1 << level
        draws = SplitMix64(80 + level).uniform_block(2 * batch * side * side, -50.0, 50.0)
        pred, gt = draws.reshape(2, batch, side, side).astype(dtype)
        d = _stack(pred, gt)
        want = _stack(list(pred), list(gt))
        assert d.dtype == want.dtype == np.float64 and d.shape == (batch, side, side)
        assert d.tobytes() == want.tobytes()

    def test_array_path_returns_a_c_contiguous_residual(self):
        # the pooling and the norms sum in memory order, so a transposed
        # batch must give the residual of its C-ordered copy
        pred, gt = np.array(random_map_batch(81, 4, 3, -2.0, 2.0))
        pred_t, gt_t = pred.transpose(0, 2, 1), np.asfortranarray(gt.transpose(0, 2, 1))
        d, want = _stack(pred_t, gt_t), _stack(list(pred_t), list(gt_t))
        assert d.flags.c_contiguous
        assert d.tobytes() == want.tobytes()
        assert _same(_evaluate(d, 3, True, True), _evaluate(want, 3, True, True))

    @pytest.mark.parametrize("pred_shape, gt_shape, message", [
        ((0, 4, 4), (0, 4, 4), "batches must be non-empty"),
        ((2, 4, 4), (3, 4, 4), "batch sizes differ: 2 predictions vs 3 ground truths"),
        ((2, 4, 4), (2, 2, 2), "pair 0: prediction level 2, ground truth level 1; "
                               "a batch needs a single map level (2)"),
        ((2, 4, 4), (2, 4, 2), "a map must be square with a power-of-two side, got shape (4, 2)"),
        ((2, 4, 2), (2, 4, 4), "a map must be square with a power-of-two side, got shape (4, 2)"),
        ((2, 6, 6), (2, 4, 4), "a map must be square with a power-of-two side, got shape (6, 6)"),
    ])
    def test_array_batches_keep_their_messages(self, pred_shape, gt_shape, message):
        # empty arrays fail first and arrays of two shapes in the per-pair loop;
        # TestBatchForms covers same-shape arrays that are not square power-of-two maps
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _stack(np.zeros(pred_shape), np.zeros(gt_shape))
        # the same message as for the arrays' maps in a sequence
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _stack(list(np.zeros(pred_shape)), list(np.zeros(gt_shape)))


_SET = ResolutionSet((0, 2, 3, 4))

# every loss and likelihood entry point, on a level-4 batch
ENTRY_POINTS = {
    "l2_level": lambda p, g: l2_level(p, g, 2),
    "l_diff_pair": lambda p, g: l_diff_pair(p, g, 1, 3),
    "l_diff": lambda p, g: l_diff(p, g, 2),
    "pml_loss": lambda p, g: pml_loss(p, g, 3),
    "total_loss": lambda p, g: total_loss(p, g, 3),
    "loss_value_and_gradient": lambda p, g: loss_value_and_gradient(p, g, 3),
    "loss_gradient": lambda p, g: loss_gradient(p, g, 3),
    "log_likelihood": lambda p, g: log_likelihood(p, g, _SET),
    "special_case_likelihood": lambda p, g: special_case_likelihood(p, g, 2),
    "optimal_variances": lambda p, g: optimal_variances(p, g, _SET),
    "likelihood_with_variances":
        lambda p, g: likelihood_with_variances(p, g, _SET, {0: 0.5, 1: 0.25, 2: 0.125}),
}


def _same(a, b) -> bool:
    """Exact equality of breakdowns, reports, floats and (tuples holding) arrays."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestBatchForms:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_array_and_map_batches_agree(self, name):
        fn = ENTRY_POINTS[name]
        preds, gts = random_map_batch(70, 4, 3, -2.0, 2.0)
        pred, gt = np.array(preds), np.array(gts)
        assert pred.shape == (3, 16, 16)
        from_maps = fn(preds, gts)
        assert _same(fn(pred, gt), from_maps)
        assert _same(fn(list(pred), list(gt)), from_maps)
        # a float32 batch is subtracted in float64, as its maps would be
        pred32, gt32 = pred.astype(np.float32), gt.astype(np.float32)
        from_maps32 = fn([DensityMap(4, p) for p in pred32], [DensityMap(4, g) for g in gt32])
        assert _same(fn(pred32, gt32), from_maps32)
        # and so is an integer batch
        pred64, gt64 = (pred * 1000).astype(np.int64), (gt * 1000).astype(np.int64)
        from_maps64 = fn([DensityMap(4, p) for p in pred64], [DensityMap(4, g) for g in gt64])
        assert _same(fn(pred64, gt64), from_maps64)
        assert _same(fn(list(pred64), list(gt64)), from_maps64)

    @pytest.mark.parametrize("shape", [(2, 4, 2), (2, 3, 3), (2, 0, 0), (2, 2, 2, 2), (4, 4)])
    def test_maps_must_be_square_with_a_power_of_two_side(self, shape):
        x = np.zeros(shape)
        message = f"a map must be square with a power-of-two side, got shape {shape[1:]}"
        with pytest.raises(ValueError, match=re.escape(message)):
            l2_level(x, x, 0)

    def test_array_pairs_at_two_levels_rejected(self):
        message = "pair 0: prediction level 1, ground truth level 2; a batch needs a single map level (1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            l2_level(np.zeros((1, 2, 2)), np.zeros((1, 4, 4)), 0)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_entry_points_leave_their_inputs_alone(self, name):
        # the gradient is written into the residual, which is never the caller's array
        preds, gts = random_map_batch(72, 4, 3, -2.0, 2.0)
        pred, gt = np.array(preds), np.array(gts)
        for p, g in [(pred, gt), (pred.astype(np.float32), gt.astype(np.float32)),
                     (preds, gts), (list(pred), list(gt))]:
            maps = list(p) + list(g)
            before = [np.array(m).tobytes() for m in maps]
            ENTRY_POINTS[name](p, g)
            assert [np.array(m).tobytes() for m in maps] == before

    def test_fd_gradient_leaves_its_input_alone(self):
        pred, gt = np.array(random_map_batch(71, 2, 2))
        before = pred.copy()
        numeric = fd_loss_gradient(lambda ps: total_loss(ps, gt, 1).total, pred)
        assert numeric.shape == pred.shape and np.array_equal(pred, before)


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

    @pytest.mark.parametrize("j1, j2", [(1, 1), (2, 1), (-1, 1)])
    def test_pair_must_be_coarse_then_fine(self, j1, j2):
        # (1, 1) would otherwise read as an exact 0.0
        preds, gts = random_map_batch(6, 2, 2)
        with pytest.raises(ValueError, match=re.escape(f"need 0 <= coarse < fine, got ({j1}, {j2})")):
            l_diff_pair(preds, gts, j1, j2)

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
        bd = pml_loss(preds, gts, 0)
        assert bd.pml == pytest.approx(math.log(l2_level(preds, gts, 0) + 1e-12), rel=1e-15)

    def test_perfect_fit_hits_the_guard(self):
        preds, _ = random_map_batch(9, 4, 2)
        for n in (0, 2, 4):
            bd = pml_loss(preds, preds, n)
            assert bd.pml == pytest.approx((n + 1) * math.log(1e-12), rel=1e-15)

    def test_term_by_term_oracle(self):
        preds, gts = random_map_batch(10, 5, 3)
        n, eps = 4, 1e-12
        bd = pml_loss(preds, gts, n)
        expected = math.log(l2_level(preds, gts, 0) + eps)
        for j in range(1, n + 1):
            expected += math.log(l_diff(preds, gts, j) + eps)
        assert bd.pml == pytest.approx(expected, rel=1e-14)
        assert bd.regularizer == 0.0
        assert bd.total == bd.pml

    def test_n_above_level_rejected(self):
        preds, gts = random_map_batch(11, 2, 2)
        with pytest.raises(ValueError, match="exceeds"):
            pml_loss(preds, gts, 3)

    @pytest.mark.parametrize(
        "fn", [pml_loss, total_loss, loss_value_and_gradient, loss_gradient],
        ids=lambda fn: fn.__name__,
    )
    def test_guard_is_not_a_parameter(self, fn):
        # the log guard is the constant DEFAULT_EPSILON, not a setting
        preds, gts = random_map_batch(11, 2, 2)
        with pytest.raises(TypeError, match="epsilon"):
            fn(preds, gts, 1, epsilon=1e-12)


class TestTotalLoss:
    def test_perfect_fit(self):
        preds, _ = random_map_batch(12, 4, 2)
        bd = total_loss(preds, preds, 3)
        assert bd.total == pytest.approx(4 * math.log(1e-12), rel=1e-15)
        assert bd.regularizer == 0.0

    def test_single_resolution_structure_at_n0(self):
        preds, gts = random_map_batch(13, 4, 2)
        bd = total_loss(preds, gts, 0)
        expected = math.log(l2_level(preds, gts, 0) + 1e-12) + l2_level(preds, gts, 4)
        assert bd.total == pytest.approx(expected, rel=1e-14)

    def test_recomposition_is_exact(self):
        preds, gts = random_map_batch(14, 5, 3)
        bd = total_loss(preds, gts, 4)
        assert bd.total == bd.pml + bd.regularizer
        assert bd.regularizer == l2_level(preds, gts, 5)

    def test_every_term_nonnegative(self):
        preds, gts = random_map_batch(15, 4, 2, low=-3, high=3)
        bd = total_loss(preds, gts, 3)
        assert all(v >= 0.0 for v in bd.l2_per_level.values())
        assert all(v >= 0.0 for v in bd.ldiff_per_pair.values())

    def test_flat_report_keys(self):
        preds, gts = random_map_batch(16, 3, 2)
        flat = total_loss(preds, gts, 2).to_flat_dict()
        for key in ("l2_level_0", "l2_level_3", "ldiff_1_2", "sigma_sq_0", "pml",
                    "regularizer", "total"):
            assert key in flat
        assert "epsilon" not in flat


class TestLossGradient:
    def test_zero_at_perfect_fit(self):
        preds, _ = random_map_batch(17, 3, 2)
        grads = loss_gradient(preds, preds, 2)
        assert grads.shape == (2, 8, 8) and np.array_equal(grads, np.zeros_like(grads))

    def test_regularizer_adds_the_plain_quadratic_gradient(self):
        # total minus the log terms' own gradient is (2/B) * d, up to rounding
        preds, gts = random_map_batch(18, 3, 2)
        d = _stack(preds, gts)
        log_part = _evaluate(d.copy(), 2, include_regularizer=False, want_gradient=True)[1]
        grads = loss_gradient(preds, gts, 2)
        for b, g in enumerate(grads):
            np.testing.assert_allclose(g - log_part[b], 2.0 * d[b] / len(grads), rtol=0, atol=1e-14)

    def test_matches_finite_differences(self):
        preds, gts = random_map_batch(19, 5, 2)
        analytic = loss_gradient(preds, gts, 4)
        numeric = fd_loss_gradient(lambda ps: total_loss(ps, gts, 4).total, preds)
        scale = np.max(np.abs(numeric))
        err = np.max(np.abs(analytic - numeric)) / scale
        assert err < 1e-5

    def test_matches_finite_differences_without_regularizer(self):
        # training's unregularized gradient comes straight from the core
        preds, gts = random_map_batch(20, 4, 2)
        analytic = _evaluate(_stack(preds, gts), 3, False, True)[1]
        numeric = fd_loss_gradient(lambda ps: pml_loss(ps, gts, 3).pml, preds)
        scale = np.max(np.abs(numeric))
        err = np.max(np.abs(analytic - numeric)) / scale
        assert err < 1e-5

    def test_value_and_gradient_agree_with_separate_calls(self):
        preds, gts = random_map_batch(21, 4, 2)
        bd, grads = loss_value_and_gradient(preds, gts, 3)
        assert bd.total == total_loss(preds, gts, 3).total
        assert np.array_equal(grads, loss_gradient(preds, gts, 3))

    def test_gradient_is_the_core_batch_with_pinned_bits(self):
        # level 7, batch 3 pools through the strided block sums (7->5 by 4, 5->4 by 2);
        # the digest is the one the gradient had when it came back as one map per row
        preds, gts = random_map_batch(31, 7, 3, -1.0, 1.0)
        bd, grads = loss_value_and_gradient(preds, gts, 5)
        assert grads.shape == (3, 128, 128) and grads.dtype == np.float64
        assert np.array_equal(grads, _evaluate(_stack(preds, gts), 5, True, True)[1])
        assert bd.total == 10959.98393355991
        assert hashlib.sha256(b"".join(g.tobytes() for g in grads)).hexdigest() == (
            "02983fee146bcf61fd66ff33be37e8b6f4f905543fa2aebeb4effaaf1548d8c1")

    @pytest.mark.parametrize("regularizer", [True, False])
    @pytest.mark.parametrize("level, batch", [(0, 2), (5, 3), (9, 3)])
    def test_gradient_is_written_into_the_residual(self, level, batch, regularizer):
        # the coarse gradient at level n, replicated to the full grid, plus d when
        # regularized, times 2/B: the bits of replicating it whole and adding d
        d = _stack(*random_map_batch(40 + level, level, batch, -1.0, 1.0))
        for n in sorted({0, max(level - 1, 0), level}):
            residual_d = d.copy()
            bd, grad = _evaluate(residual_d, n, regularizer, True)
            assert grad is residual_d
            pooled, diffs = _terms(d, tuple(range(n + 1)))
            g = pooled[0] / (bd.l2_per_level[0] + DEFAULT_EPSILON)
            for j in range(1, n + 1):
                g = _replicate(g, j)
                g += diffs[(j - 1, j)] / (bd.ldiff_per_pair[(j - 1, j)] + DEFAULT_EPSILON)
            full = _replicate(g, level) + d if regularizer else _replicate(g, level)
            assert grad.tobytes() == (full * (2.0 / batch)).tobytes()

    def test_residual_that_is_not_c_contiguous_rejected(self):
        # reshaping it would copy, and the gradient written into the copy would be lost
        d = _stack(*random_map_batch(41, 3, 2)).transpose(0, 2, 1)
        with pytest.raises(ValueError, match="must be C-contiguous"):
            _evaluate(d, 2, True, True)


class TestPeakMemory:
    """The loss core forms the (8, 512, 512) residual and little else of its size."""

    @pytest.fixture(scope="class")
    def batch(self):
        return random_map_batch(42, 9, 8)

    @pytest.mark.parametrize("name, call", [
        ("loss_value_and_gradient", lambda p, g: loss_value_and_gradient(p, g, 6)),
        ("total_loss", lambda p, g: total_loss(p, g, 6)),
        ("log_likelihood", lambda p, g: log_likelihood(p, g, ResolutionSet.dense(6, 9))),
    ])
    def test_peak_is_at_most_a_quarter_above_the_residual(self, batch, name, call):
        # tracemalloc sees numpy's buffers; the residual is 16 MiB
        call(*batch)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(*batch)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 1.25 * (8 * 512 * 512 * 8), f"{name}: peak {peak / 2**20:.1f} MiB"


class TestOptimalSigma:
    """``optimal_variances`` against the terms of a ``total_loss`` breakdown."""

    def test_base_level_zero(self):
        preds, gts = random_map_batch(22, 3, 2)
        bd = total_loss(preds, gts, 2)
        sigma = optimal_variances(preds, gts, ResolutionSet.dense(2, 3))
        assert sigma[0] == pytest.approx(bd.l2_per_level[0], rel=1e-15)

    def test_pair_zero_one(self):
        preds, gts = random_map_batch(23, 3, 2)
        bd = total_loss(preds, gts, 1)
        sigma = optimal_variances(preds, gts, ResolutionSet((0, 1, 3)))
        assert sigma[1] == pytest.approx(bd.ldiff_per_pair[(0, 1)] / 3.0, rel=1e-15)

    def test_matches_breakdown_sigma(self):
        preds, gts = random_map_batch(24, 4, 2)
        bd = total_loss(preds, gts, 3)
        assert optimal_variances(preds, gts, ResolutionSet.dense(3, 4)) == bd.sigma_sq

    def test_perfect_fit_uses_guard_and_flags(self):
        preds, _ = random_map_batch(25, 3, 2)
        bd = total_loss(preds, preds, 2)
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
        return ([DensityMap(self.LEVEL, p) for p in pred],
                [DensityMap(self.LEVEL, g) for g in gt])

    def test_near_fit_ldiff_matches_residual_form(self):
        preds, gts = self._batch(2, 1e-7)
        bd = total_loss(preds, gts, self.N)
        for (a, b), got in bd.ldiff_per_pair.items():
            oracle = _residual_form_oracle(preds, gts, a, b)
            assert oracle > 1e-12  # above eps, so the log guard does not mask the term
            assert got == pytest.approx(oracle, rel=1e-6), (a, b)

    def test_near_fit_gradient_matches_finite_differences(self, monkeypatch):
        preds, gts = self._batch(1, 1e-7)
        analytic = loss_gradient(preds, gts, self.N)
        # a step well below the 1e-7 residual, so each log term stays locally quadratic
        monkeypatch.setattr("pml.loss.FD_STEP_SCALE", 1e-9)
        numeric = fd_loss_gradient(lambda ps: total_loss(ps, gts, self.N).total, preds)
        scale = np.max(np.abs(numeric))
        err = np.max(np.abs(analytic - numeric)) / scale
        assert err < 1e-5

    def test_pure_count_offset(self):
        preds, gts = self._batch(1, 0.0)
        bd, grads = loss_value_and_gradient(preds, gts, self.N)
        # the residual is flat, so every difference term is zero up to float dust
        assert all(v < 1e-20 for v in bd.ldiff_per_pair.values())
        # what remains is the count term and the regularizer:
        # (2/B) * (1 / (c 4^L) + c) per cell; dust over eps moves it by a few percent
        c = self.OFFSET
        expected = 2.0 * (1.0 / (c * 4.0 ** self.LEVEL) + c)
        np.testing.assert_allclose(grads[0], expected, rtol=0.05)


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
            totals.append(total_loss(preds, gts, 0).total)
            plain.append(l2_level(preds, gts, 0) + l2_level(preds, gts, 2))
        assert int(np.argmin(totals)) == int(np.argmin(plain))
