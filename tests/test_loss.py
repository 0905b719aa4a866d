import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_loss_gradient, numpy_versions, random_map_batch, traced_peak
from pml import loss as loss_mod
from pml.likelihood import (
    likelihood_with_variances,
    log_likelihood,
    optimal_variances,
    special_case_likelihood,
)
from pml.loss import (
    DEFAULT_EPSILON,
    _batch_level,
    _evaluate,
    _pool_residual,
    _sq_norm,
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
from pml.pyramid import (
    _SLAB_CELLS,
    DensityMap,
    PointAnnotations,
    ResolutionSet,
    _pool_sum,
    _replicate,
    downsample_sum,
    rasterize,
    residual,
)
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


class TestFormedResidual:
    """The residual the loss core forms: ``_pool_residual`` at the map level."""

    @pytest.mark.parametrize("level", [0, 1, 3, 6])
    def test_equals_difference_of_stacks_bit_for_bit(self, level):
        for batch in (1, 2, 5):
            preds, gts = random_map_batch(60 + level, level, batch, -3.0, 3.0)
            d = _pool_residual(preds, gts, level, level)
            want = np.stack([p.data for p in preds]) - np.stack([g.data for g in gts])
            assert d.shape == want.shape and d.dtype == want.dtype
            assert np.array_equal(d, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("level", [0, 3, 7])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_array_path_equals_sequence_path_bit_for_bit(self, dtype, level, batch):
        # two arrays of one shape are subtracted in one call;
        # a sequence of their maps goes through the per-pair loop
        side = 1 << level
        draws = SplitMix64(80 + level).uniform_block(2 * batch * side * side, -50.0, 50.0)
        pred, gt = draws.reshape(2, batch, side, side).astype(dtype)
        d = _pool_residual(pred, gt, level, level)
        want = _pool_residual(list(pred), list(gt), level, level)
        assert d.dtype == want.dtype == np.float64 and d.shape == (batch, side, side)
        assert d.tobytes() == want.tobytes()

    def test_array_path_returns_a_c_contiguous_residual(self):
        # the pooling and the norms sum in memory order, so a transposed
        # batch must give the residual of its C-ordered copy
        pred, gt = np.array(random_map_batch(81, 4, 3, -2.0, 2.0))
        pred_t, gt_t = pred.transpose(0, 2, 1), np.asfortranarray(gt.transpose(0, 2, 1))
        d = _pool_residual(pred_t, gt_t, 4, 4)
        want = _pool_residual(list(pred_t), list(gt_t), 4, 4)
        assert d.flags.c_contiguous
        assert d.tobytes() == want.tobytes()
        assert _same(_evaluate(pred_t, gt_t, 3, True, True),
                     _evaluate(list(pred_t), list(gt_t), 3, True, True))

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
            _evaluate(np.zeros(pred_shape), np.zeros(gt_shape), 0, True, True)
        # the same message as for the arrays' maps in a sequence
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _evaluate(list(np.zeros(pred_shape)), list(np.zeros(gt_shape)), 0, True, True)


def _level_of(batch) -> int:
    """The map level of a batch, read from its first map's side."""
    return np.shape(batch[0])[-1].bit_length() - 1


def _set(batch, *subs) -> ResolutionSet:
    """The resolution set of ``subs`` and the batch's level."""
    return ResolutionSet(subs + (_level_of(batch),))


# every loss and likelihood entry point; on a level-4 batch they read levels up to 4,
# and on a level-8 batch the read-only ones pool to factors 64, 32, 4 and 2 and to one cell
ENTRY_POINTS = {
    "l2_level": lambda p, g: l2_level(p, g, 2),
    "l_diff_pair": lambda p, g: l_diff_pair(p, g, _level_of(p) - 3, _level_of(p) - 1),
    "l_diff": lambda p, g: l_diff(p, g, 2),
    "pml_loss": lambda p, g: pml_loss(p, g, 3),
    "total_loss": lambda p, g: total_loss(p, g, 3),
    "loss_value_and_gradient": lambda p, g: loss_value_and_gradient(p, g, 3),
    "loss_gradient": lambda p, g: loss_gradient(p, g, 3),
    "log_likelihood": lambda p, g: log_likelihood(p, g, _set(p, 0, 2, 3)),
    "special_case_likelihood": lambda p, g: special_case_likelihood(p, g, _level_of(p) - 2),
    "optimal_variances": lambda p, g: optimal_variances(p, g, _set(p, 0, 2, _level_of(p) - 1)),
    "likelihood_with_variances":
        lambda p, g: likelihood_with_variances(p, g, _set(p, 0, 2, 3), {0: 0.5, 1: 0.25, 2: 0.125}),
}

# a level-4 batch of 3 maps (768 cells) forms its residual; a level-8 batch of 3 maps
# has more than _SLAB_CELLS cells, so the read-only entry points pool it a slab at a time
BATCH_SHAPES = [(4, 3), (8, 3)]


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
        for level, batch in BATCH_SHAPES:
            preds, gts = random_map_batch(70, level, batch, -2.0, 2.0)
            pred, gt = np.array(preds), np.array(gts)
            assert pred.shape == (batch, 1 << level, 1 << level)
            from_maps = fn(preds, gts)
            assert _same(fn(pred, gt), from_maps)
            assert _same(fn(list(pred), list(gt)), from_maps)
            # a float32 batch is subtracted in float64, as its maps would be
            pred32, gt32 = pred.astype(np.float32), gt.astype(np.float32)
            from_maps32 = fn([DensityMap(level, p) for p in pred32],
                             [DensityMap(level, g) for g in gt32])
            assert _same(fn(pred32, gt32), from_maps32)
            assert _same(fn(list(pred32), list(gt32)), from_maps32)
            # and so is an integer batch
            pred64, gt64 = (pred * 1000).astype(np.int64), (gt * 1000).astype(np.int64)
            from_maps64 = fn([DensityMap(level, p) for p in pred64],
                             [DensityMap(level, g) for g in gt64])
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
        # the gradient is written into the residual, which is never the caller's array,
        # and the slabs are subtracted into a buffer of their own
        for level, batch in BATCH_SHAPES:
            preds, gts = random_map_batch(72, level, batch, -2.0, 2.0)
            pred, gt = np.array(preds), np.array(gts)
            for p, g in [(pred, gt), (pred.astype(np.float32), gt.astype(np.float32)),
                         ((pred * 1000).astype(np.int64), (gt * 1000).astype(np.int64)),
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
        d = _pool_residual(preds, gts, 3, 3)
        log_part = _evaluate(preds, gts, 2, include_regularizer=False, want_gradient=True)[1]
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
        analytic = _evaluate(preds, gts, 3, False, True)[1]
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
        assert np.array_equal(grads, _evaluate(preds, gts, 5, True, True)[1])
        assert bd.total == 10959.98393355991, numpy_versions()
        assert hashlib.sha256(b"".join(g.tobytes() for g in grads)).hexdigest() == (
            "02983fee146bcf61fd66ff33be37e8b6f4f905543fa2aebeb4effaaf1548d8c1"), numpy_versions()

    @pytest.mark.parametrize("regularizer", [True, False])
    @pytest.mark.parametrize("level, batch", [(0, 2), (5, 3), (9, 3)])
    def test_gradient_is_written_into_the_residual(self, level, batch, regularizer):
        # the coarse gradient at level n, replicated to the full grid, plus d when
        # regularized, times 2/B: the bits of replicating it whole and adding d
        preds, gts = random_map_batch(40 + level, level, batch, -1.0, 1.0)
        d = _pool_residual(preds, gts, level, level)
        for n in sorted({0, max(level - 1, 0), level}):
            bd, grad = _evaluate(preds, gts, n, regularizer, True)
            pooled, diffs = _terms(d, tuple(range(n + 1)))
            g = pooled[0] / (bd.l2_per_level[0] + DEFAULT_EPSILON)
            for j in range(1, n + 1):
                g = _replicate(g, j)
                g += diffs[(j - 1, j)] / (bd.ldiff_per_pair[(j - 1, j)] + DEFAULT_EPSILON)
            full = _replicate(g, level) + d if regularizer else _replicate(g, level)
            assert grad.tobytes() == (full * (2.0 / batch)).tobytes()


def _same_bits(got, want) -> bool:
    """Equal arrays of one shape, zero signs included."""
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _batch_forms(pred, gt):
    """A float64 (B, side, side) batch pair in every form the entry points take."""
    level = _level_of(pred)
    yield [DensityMap(level, p) for p in pred], [DensityMap(level, g) for g in gt]
    yield pred, gt
    yield pred.astype(np.float32), gt.astype(np.float32)
    big = 2.0 ** 62
    yield np.clip(pred, -big, big).astype(np.int64), np.clip(gt, -big, big).astype(np.int64)
    yield list(pred), list(gt)
    yield pred.transpose(0, 2, 1), gt.transpose(0, 2, 1)
    yield np.asfortranarray(pred), np.asfortranarray(gt)


# a loss_large-shaped batch: 8 level-9 maps, a 16 MiB residual
@pytest.fixture(scope="module")
def large_batch():
    return random_map_batch(42, 9, 8)


class TestPoolResidual:
    """``_pool_residual`` is ``_pool_sum`` of the residual it forms at the map level."""

    @staticmethod
    def _check_every_form_and_level(rng, level, batch):
        # normals scaled by 2^-60..2^60, some residuals -0.0 and a quadrant of -0.0 blocks
        side = 1 << level
        shape = (batch, side, side)
        pred = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 61, shape))
        gt = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 61, shape))
        zeros = rng.random(shape) < 0.15
        zeros[..., : side // 2, : side // 2] = True
        pred[zeros], gt[zeros] = -0.0, 0.0
        for p, g in _batch_forms(pred, gt):
            assert _batch_level(p, g) == level
            d = _pool_residual(p, g, level, level)
            norm = repr(_sq_norm(d))
            for t in range(level + 1):
                assert _same_bits(_pool_residual(p, g, level, t), _pool_sum(d, t)), (level, t)
                pooled, got = _pool_residual(p, g, level, t, norm=True)
                assert _same_bits(pooled, _pool_sum(d, t)) and repr(got) == norm, (level, t)

    @pytest.mark.parametrize("batch", [1, 3, 17])
    def test_equals_pooling_the_formed_residual_bit_for_bit(self, batch):
        # level 10 is left out at 17 maps, which would take about 140 MB
        rng = np.random.default_rng(260 + batch)
        for level in range(11 if batch < 17 else 10):
            self._check_every_form_and_level(rng, level, batch)

    @pytest.mark.parametrize("level", range(2, 8))
    def test_small_maps_pool_the_formed_residual(self, monkeypatch, level):
        # maps under half a slab form the residual, however many more than a slab they fill
        monkeypatch.setattr(loss_mod, "_pool_rows", None)
        self._check_every_form_and_level(np.random.default_rng(270 + level), level,
                                         (_SLAB_CELLS >> 2 * level) + 3)

    # the read-only entry points on a level-9 batch
    READ_ONLY = {
        "log_likelihood": lambda p, g: log_likelihood(p, g, ResolutionSet.dense(6, 9)).loglik,
        "special_case_likelihood": lambda p, g: special_case_likelihood(p, g, 6).loglik,
        "optimal_variances": lambda p, g: optimal_variances(p, g, ResolutionSet.dense(6, 9))[6],
        "l2_level": lambda p, g: l2_level(p, g, 6),
        "l2_level_0": lambda p, g: l2_level(p, g, 0),
        "l_diff_pair": lambda p, g: l_diff_pair(p, g, 5, 6),
        "l_diff_pair_2_7": lambda p, g: l_diff_pair(p, g, 2, 7),
        "l_diff": lambda p, g: l_diff(p, g, 6),
        "likelihood_with_variances": lambda p, g: likelihood_with_variances(
            p, g, ResolutionSet((0, 5, 6, 9)), {0: 1.0, 1: 2.0, 2: 3.0}),
    }
    # their values on the loss_large-shaped batch as float.hex, the ones the code gave
    # when it formed the residual and pooled it whole
    VALUES = {
        "log_likelihood": "-0x1.feb39c351ee3ap+14",
        "special_case_likelihood": "-0x1.feb39c351ee3ap+14",
        "optimal_variances": "0x1.53b32be686e49p+3",
        "l2_level": "0x1.526baeaaeab86p+15",
        "l2_level_0": "0x1.07f447d65fc35p+15",
        "l_diff_pair": "0x1.fd8cc1d9ca56ep+14",
        "l_diff_pair_2_7": "0x1.52229e7d9cc48p+15",
        "l_diff": "0x1.fd8cc1d9ca56ep+14",
        "likelihood_with_variances": "-0x1.34f3cfa864f24p+15",
    }

    @pytest.mark.parametrize("name", READ_ONLY)
    def test_read_only_entry_points_keep_their_values(self, large_batch, name):
        # the loss_large check only asks for a finite log-likelihood
        assert self.READ_ONLY[name](*large_batch).hex() == self.VALUES[name]

    def test_likelihood_reports_keep_every_term(self, large_batch):
        report = log_likelihood(*large_batch, ResolutionSet.dense(6, 9))
        assert report.base_term.hex() == "-0x1.4db09619162e1p+2"
        assert [v.hex() for v in report.terms.values()] == [
            "-0x1.001694654843ap+4", "-0x1.0056623282580p+6", "-0x1.fe62e0e3ae2bcp+7",
            "-0x1.fe13e6c025e52p+9", "-0x1.003aa02abb144p+12", "-0x1.00527d7fd8c48p+14"]
        sigma = optimal_variances(*large_batch, ResolutionSet.dense(6, 9))
        assert [v.hex() for v in sigma.values()] == [
            "0x1.07f447d65fc35p+15", "0x1.50674f0443922p+13", "0x1.53ea4bcb79de6p+11",
            "0x1.4416a4f7d1b38p+9", "0x1.42031d053b7a4p+7", "0x1.52620b23d8004p+5",
            "0x1.53b32be686e49p+3"]

    BAD_BATCHES = {
        "empty": (lambda p, g: ([], []), "batches must be non-empty"),
        "unequal": (lambda p, g: (p, g[:2]),
                    "batch sizes differ: 3 predictions vs 2 ground truths"),
        "non_square": (lambda p, g: (p, [g[0], g[1][:, :256], g[2]]),
                       "a map must be square with a power-of-two side, got shape (512, 256)"),
        "mixed_levels": (lambda p, g: (p, g[:2] + [DensityMap(8, np.zeros((256, 256)))]),
                         "pair 2: prediction level 9, ground truth level 8; "
                         "a batch needs a single map level (9)"),
        "arrays_at_two_levels": (lambda p, g: (np.array(p), np.zeros((3, 256, 256))),
                                 "pair 0: prediction level 9, ground truth level 8; "
                                 "a batch needs a single map level (9)"),
    }

    @pytest.mark.parametrize("case", BAD_BATCHES)
    @pytest.mark.parametrize("name", READ_ONLY)
    def test_bad_batches_fail_before_any_pooling(self, monkeypatch, case, name):
        def refuse(*args):
            raise AssertionError("pooled before the batch was checked")

        monkeypatch.setattr(loss_mod, "_pool_sum", refuse)
        monkeypatch.setattr(loss_mod, "_pool_rows", refuse)
        preds, gts = random_map_batch(90, 9, 3)
        make, message = self.BAD_BATCHES[case]
        p, g = make(preds, [m.data for m in gts])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.READ_ONLY[name](p, g)

    def test_level_above_the_maps_fails_before_any_pooling(self, monkeypatch):
        monkeypatch.setattr(loss_mod, "_pool_sum", None)
        monkeypatch.setattr(loss_mod, "_pool_rows", None)
        preds, gts = random_map_batch(91, 8, 3)
        message = "requested levels (5, 9) must lie in [0, 8], the map level"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            l_diff_pair(preds, gts, 5, 9)


def _count_map_batch(seed: int, level: int, batch: int):
    """Predictions in [0, 1) against ground truths that count points per cell."""
    side = 1 << level
    rng = SplitMix64(seed)
    preds = rng.uniform_block(batch * side * side).reshape(batch, side, side)
    gts = np.stack([rasterize(PointAnnotations(rng.uniform_block(2 * side, 0.0, 1.0).reshape(-1, 2),
                                               1.0), level).data for _ in range(batch)])
    return preds, gts


def _negative_residual_batch(seed: int, level: int, batch: int):
    """Ground truths 0.2 above predictions in [-0.1, 0.1): every residual is below zero."""
    preds, _ = random_map_batch(seed, level, batch, -0.1, 0.1)
    return preds, [DensityMap(level, p.data + 0.2) for p in preds]


class TestReadOnlyLossBits:
    """``total_loss`` and ``pml_loss``, which stream level-8 and larger batches for
    0 < n < L, give the breakdown of the path that forms the residual, field for field."""

    CASES = {
        "level_8_batch_1": lambda: random_map_batch(300, 8, 1, -1.0, 1.0),
        "level_8_batch_2": lambda: random_map_batch(301, 8, 2, -1.0, 1.0),
        "level_8_batch_3": lambda: random_map_batch(302, 8, 3, -1.0, 1.0),
        "level_9_batch_2": lambda: random_map_batch(303, 9, 2, -1.0, 1.0),
        "level_10_batch_1": lambda: random_map_batch(304, 10, 1, -1.0, 1.0),
        "count_map_ground_truth": lambda: _count_map_batch(305, 8, 3),
        "negative_residual": lambda: _negative_residual_batch(306, 8, 2),
    }

    @staticmethod
    def _fields(bd):
        return {f: repr(v) for f, v in vars(bd).items()}

    @pytest.mark.parametrize("case", CASES)
    def test_equal_to_the_formed_residual_path(self, case):
        preds, gts = self.CASES[case]()
        pred, gt = np.array(preds, dtype=np.float64), np.array(gts, dtype=np.float64)
        level = _level_of(pred)
        forms = [(pred, gt), ([DensityMap(level, p) for p in pred], [DensityMap(level, g) for g in gt])]
        for n in range(level + 1):
            want_total = self._fields(loss_value_and_gradient(pred, gt, n)[0])
            want_pml = self._fields(_evaluate(pred, gt, n, False, True)[0])
            for p, g in forms:
                assert self._fields(total_loss(p, g, n)) == want_total, (case, n, type(p))
                assert self._fields(pml_loss(p, g, n)) == want_pml, (case, n, type(p))


def _peak_over_residual(batch, call) -> float:
    """``tracemalloc``'s peak of a warm call on the batch, over its 16 MiB residual."""
    call(*batch)
    return traced_peak(lambda: call(*batch)) / (8 * 512 * 512 * 8)


class TestPeakMemory:
    """Only the gradient path forms the (8, 512, 512) residual, and little else of its
    size; the read-only entry points, ``total_loss`` and ``pml_loss`` among them, form
    it only where their finest level is the map level."""

    @pytest.mark.parametrize("name, call", [
        ("loss_value_and_gradient", lambda p, g: loss_value_and_gradient(p, g, 6)),
    ])
    def test_peak_is_at_most_a_quarter_above_the_residual(self, large_batch, name, call):
        ratio = _peak_over_residual(large_batch, call)
        print(f"{name}: peak {ratio:.3f}x the residual")
        assert ratio <= 1.25, f"{name}: peak {ratio:.3f}x the residual"

    # near the map level the coarse gradient and the residual differences are full-size
    # too; the ratios the code has at n = 8 and 9, each held with 0.05 to spare
    NEAR_MAP_LEVEL = {
        (8, "loss_value_and_gradient"): 2.421, (8, "total_loss"): 0.917, (8, "pml_loss"): 0.917,
        (9, "loss_value_and_gradient"): 4.667, (9, "total_loss"): 3.667, (9, "pml_loss"): 3.667,
    }

    @pytest.mark.parametrize("n, name", NEAR_MAP_LEVEL)
    def test_peak_near_the_map_level_does_not_grow(self, large_batch, n, name):
        ratio = _peak_over_residual(large_batch, lambda p, g: getattr(loss_mod, name)(p, g, n))
        print(f"{name}, n = {n}: peak {ratio:.3f}x the residual")
        bound = self.NEAR_MAP_LEVEL[(n, name)] + 0.05
        assert ratio <= bound, f"{name}, n = {n}: peak {ratio:.3f}x the residual, over {bound:.3f}"

    @pytest.mark.parametrize("name, call", [
        ("total_loss", lambda p, g: total_loss(p, g, 6)),
        ("pml_loss", lambda p, g: pml_loss(p, g, 6)),
        ("log_likelihood", lambda p, g: log_likelihood(p, g, ResolutionSet.dense(6, 9))),
        ("special_case_likelihood", lambda p, g: special_case_likelihood(p, g, 6)),
        ("optimal_variances", lambda p, g: optimal_variances(p, g, ResolutionSet.dense(6, 9))),
        ("l2_level", lambda p, g: l2_level(p, g, 6)),
        ("l_diff_pair", lambda p, g: l_diff_pair(p, g, 5, 6)),
    ])
    def test_read_only_peak_is_at_most_a_quarter_of_the_residual(self, large_batch, name, call):
        ratio = _peak_over_residual(large_batch, call)
        print(f"{name}: peak {ratio:.3f}x the residual")
        assert ratio <= 0.25, f"{name}: peak {ratio:.3f}x the residual"


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
