import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pml.pyramid import (
    DensityMap,
    PointAnnotations,
    ResolutionSet,
    _pool_sum,
    build_pyramid,
    downsample_avg,
    downsample_sum,
    rasterize,
    residual,
    upsample_replicate,
)
from pml.rng import SplitMix64

# the strided block sums against numpy's own summation order
pytestmark = pytest.mark.dispatch


def square_maps(max_level=3, elements=st.floats(-8, 8, allow_nan=False, allow_infinity=False)):
    return st.integers(0, max_level).flatmap(
        lambda lvl: hnp.arrays(np.float64, (1 << lvl, 1 << lvl), elements=elements).map(
            lambda a: DensityMap(lvl, a)
        )
    )


class TestDensityMap:
    @pytest.mark.parametrize("data", [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0], np.ones((1, 4)),
                                      np.ones((2, 2, 1))], ids=["flat", "short", "row", "3-D"])
    def test_flat_data_rejected(self, data):
        # the data's shape is the square grid itself, never a flat 4^level vector
        with pytest.raises(ValueError, match=r"^expected shape \(2, 2\) at level 1, got "):
            DensityMap(1, data)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMap(0, [[np.nan]])

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
            DensityMap(-1, [[1.0]])

    def test_data_is_locked(self):
        m = DensityMap(1, np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_nonnegativity_check(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMap(0, [[-1.0]]).require_nonnegative()

    def test_writable_source_is_copied(self):
        src = np.arange(16.0).reshape(4, 4)
        m = DensityMap(2, src)
        src[0, 0] = 99.0
        assert m.data[0, 0] == 0.0
        assert src.flags.writeable  # DensityMap leaves its argument alone

    def test_read_only_c_contiguous_input_is_still_copied_and_checked(self):
        src = np.arange(16.0).reshape(4, 4)
        src.setflags(write=False)
        m = DensityMap(2, src)
        assert not np.shares_memory(m.data, src)
        assert np.array_equal(m.data, src) and not m.data.flags.writeable
        bad = np.array([[0.0, 1.0], [np.inf, 2.0]])
        bad.setflags(write=False)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMap(1, bad)
        with pytest.raises(ValueError, match="expected shape"):
            DensityMap(1, src)

    def test_array_is_the_data_without_a_copy(self):
        m = DensityMap(1, [[1.0, 2.0], [3.0, 4.0]])
        assert np.asarray(m) is m.data
        assert np.array_equal(np.array(m, dtype=np.float32), m.data)
        with pytest.raises(ValueError):
            np.array(m, dtype=np.float32, copy=False)
        # without a copy keyword, nothing is copied either
        assert m.__array__() is m.data


class TestPointAnnotations:
    @pytest.mark.parametrize("points", [[], np.empty(0), np.empty((0, 2))])
    def test_empty_input_means_no_points(self, points):
        ann = PointAnnotations(points, scene_size=1.0)
        assert len(ann) == 0 and ann.points.shape == (0, 2)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (4,), (1, 2, 2), (2, 1)])
    def test_wrong_shape_is_rejected_by_name(self, shape):
        pts = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=r"shape \(N, 2\), got " + re.escape(str(shape))):
            PointAnnotations(pts, scene_size=1.0)

    @pytest.mark.parametrize("size", [0.0, -1.0, np.nan, np.inf])
    def test_scene_size_must_be_finite_and_positive(self, size):
        # no points, so no bounds check could reject the size instead
        with pytest.raises(ValueError, match=rf"^scene_size must be finite and > 0, got {size}$"):
            PointAnnotations(np.empty((0, 2)), scene_size=size)

    @pytest.mark.parametrize("point", [[np.nan, 0.5], [0.5, np.nan]])
    def test_non_finite_coordinate_rejected(self, point):
        # a NaN compares false with both bounds, so only this check sees it
        with pytest.raises(ValueError, match="^annotations contain non-finite coordinates$"):
            PointAnnotations([point], scene_size=1.0)


class TestRasterize:
    def test_empty_annotations(self):
        ann = PointAnnotations(np.empty((0, 2)), scene_size=1.0)
        m = rasterize(ann, 3)
        assert m.data.shape == (8, 8)
        assert m.total() == 0.0

    def test_single_point_level_zero(self):
        ann = PointAnnotations(np.array([[0.5, 0.5]]), scene_size=1.0)
        assert rasterize(ann, 0).data.tolist() == [[1.0]]

    def test_negative_level_rejected(self):
        ann = PointAnnotations(np.empty((0, 2)), scene_size=1.0)
        with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
            rasterize(ann, -1)

    def test_quadrant_centers(self):
        pts = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
        ann = PointAnnotations(pts, scene_size=1.0)
        got = rasterize(ann, 1)
        # independent evaluation of the partition rule
        expected = np.zeros((2, 2))
        for x, y in pts:
            r = c = None
            for i in range(2):
                if i * 0.5 <= y < (i + 1) * 0.5:
                    r = i
                if i * 0.5 <= x < (i + 1) * 0.5:
                    c = i
            expected[r][c] += 1
        assert np.array_equal(got.data, expected)
        assert got.data.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_interior_grid_line_goes_to_larger_index(self):
        ann = PointAnnotations(np.array([[0.5, 0.0]]), scene_size=1.0)
        assert rasterize(ann, 1).data.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_out_of_bounds_names_offending_index(self):
        with pytest.raises(ValueError, match="point 2"):
            PointAnnotations(np.array([[0.1, 0.1], [0.2, 0.2], [1.0, 0.3]]), scene_size=1.0)

    def test_total_equals_point_count(self):
        rng = SplitMix64(11)
        pts = rng.uniform_block(2 * 257).reshape(257, 2) * 3.0
        ann = PointAnnotations(pts, scene_size=3.0)
        for level in (0, 2, 5):
            assert rasterize(ann, level).total() == 257.0


class TestDownsampleSum:
    def test_shape_8x8_to_2x2(self):
        m = DensityMap(3, SplitMix64(0).uniform_block(64).reshape(8, 8))
        assert downsample_sum(m, 1).data.shape == (2, 2)

    def test_block_sums_by_hand(self):
        assert downsample_sum(DensityMap(1, [[1, 2], [3, 4]]), 0).data.tolist() == [[10.0]]

    def test_identity(self):
        m = DensityMap(2, SplitMix64(1).uniform_block(16).reshape(4, 4))
        assert np.array_equal(downsample_sum(m, 2).data, m.data)

    def test_target_above_level_rejected(self):
        with pytest.raises(ValueError):
            downsample_sum(DensityMap(1, np.ones((2, 2))), 2)


def _numpy_block_sum(x, from_level, to_level):
    f, o = 1 << (from_level - to_level), 1 << to_level
    return x.reshape(x.shape[:-2] + (o, f, o, f)).sum(axis=(-3, -1))


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture(scope="module")
def mixed_cells():
    """16 level-9 maps' worth of normals scaled by 2^-60..2^60, 15% of them -0.0."""
    rng = np.random.default_rng(5)
    cells = rng.standard_normal(16 << 18) * np.exp2(rng.integers(-60, 61, 16 << 18))
    cells[rng.random(cells.size) < 0.15] = -0.0
    return cells


class TestPoolSumOrder:
    """``_pool_sum`` reproduces numpy's own block sum bit for bit, zero signs included."""

    @pytest.mark.parametrize("batch", [None] + list(range(1, 17)))
    def test_every_level_pair_matches_numpy(self, mixed_cells, batch):
        for level in range(10):
            side = 1 << level
            shape = (side, side) if batch is None else (batch, side, side)
            x = mixed_cells[:side * side * (batch or 1)].reshape(shape).copy()
            # a band of all-zero blocks at every factor: -0.0 on the left, mixed signs on the right
            x[..., : side // 2, : side // 2] = -0.0
            x[..., : side // 2, side // 2:] = np.where(np.arange(side - side // 2) % 3, 0.0, -0.0)
            for target in range(level):
                _assert_same_bits(_pool_sum(x, target), _numpy_block_sum(x, level, target))

    @pytest.mark.parametrize("level, batch", [(1, 512), (2, 128), (3, 32), (3, 64)])
    def test_pooling_to_one_cell_matches_numpy_on_large_batches(self, mixed_cells, level, batch):
        # enough cells for the strided path, but numpy sums a whole block pairwise here
        x = mixed_cells[:batch << (2 * level)].reshape(batch, 1 << level, 1 << level)
        _assert_same_bits(_pool_sum(x, 0), _numpy_block_sum(x, level, 0))

    @pytest.mark.parametrize("batch", [1, 3, 17])
    def test_slabs_match_numpy(self, batch):
        # batches above _SLAB_CELLS are pooled a slab of whole block rows at a time,
        # and 17 maps fill no whole number of slabs; level 10 is left out at 17 maps,
        # which would take 140 MB
        rng = np.random.default_rng(230 + batch)
        for level in range(1, 11 if batch < 17 else 10):
            side = 1 << level
            shape = (batch, side, side)
            x = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 61, shape))
            x[rng.random(shape) < 0.15] = -0.0
            x[..., : side // 2, : side // 2] = -0.0
            for target in range(level):
                _assert_same_bits(_pool_sum(x, target), _numpy_block_sum(x, level, target))

    @given(st.integers(5, 8), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_palette_maps_match_numpy(self, level, batch, data):
        target = data.draw(st.integers(0, level - 1))
        palette = data.draw(st.lists(
            st.floats(-1e250, 1e250, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
            min_size=1, max_size=8))
        seed = data.draw(st.integers(0, 2**32 - 1))
        side = 1 << level
        picks = np.random.default_rng(seed).integers(0, len(palette), (batch, side, side))
        x = np.array(palette)[picks]
        _assert_same_bits(_pool_sum(x, target), _numpy_block_sum(x, level, target))


class TestDownsampleAvg:
    def test_block_mean_by_hand(self):
        assert downsample_avg(DensityMap(1, [[1, 2], [3, 4]]), 0).data.tolist() == [[2.5]]

    def test_constant_map_stays_constant(self):
        m = DensityMap(3, np.full((8, 8), 2.75))
        for target in (0, 1, 2, 3):
            assert np.all(downsample_avg(m, target).data == 2.75)

    def test_equals_scaled_sum(self):
        m = DensityMap(3, SplitMix64(5).uniform_block(64, -4, 4).reshape(8, 8))
        for target in (0, 1, 2):
            scale = 4.0 ** (target - 3)
            np.testing.assert_allclose(
                downsample_avg(m, target).data,
                downsample_sum(m, target).data * scale,
                rtol=1e-12,
            )


class TestUpsampleReplicate:
    def test_single_cell(self):
        assert upsample_replicate(DensityMap(0, [[4.0]]), 1).data.tolist() == [[4, 4], [4, 4]]

    def test_avg_round_trip(self):
        m = DensityMap(1, [[1.0, 2.0], [3.0, 4.0]])
        round_trip = downsample_avg(upsample_replicate(m, 3), 1)
        assert np.array_equal(round_trip.data, m.data)

    def test_identity(self):
        m = DensityMap(1, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(upsample_replicate(m, 1).data, m.data)

    def test_target_below_level_rejected(self):
        with pytest.raises(ValueError):
            upsample_replicate(DensityMap(1, np.ones((2, 2))), 0)


class TestResidual:
    def test_uniform_spread_leaves_nothing(self):
        r = residual(DensityMap(1, np.ones((2, 2))), DensityMap(0, [[4.0]]))
        assert np.array_equal(r.data, np.zeros((2, 2)))

    def test_hand_evaluated(self):
        r = residual(DensityMap(1, [[2.0, 0.0], [0.0, 2.0]]), DensityMap(0, [[4.0]]))
        assert r.data.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_prior_zero_average(self):
        m = DensityMap(3, SplitMix64(9).uniform_block(64, -2, 5).reshape(8, 8))
        for coarse_level in (0, 1, 2):
            r = residual(m, downsample_sum(m, coarse_level))
            avg = DensityMap(3, r.data)
            assert np.max(np.abs(downsample_avg(avg, coarse_level).data)) < 1e-10

    def test_level_order_enforced(self):
        with pytest.raises(ValueError):
            residual(DensityMap(0, [[1.0]]), DensityMap(1, np.ones((2, 2))))


class TestBuildPyramid:
    def test_singleton(self):
        m = DensityMap(2, SplitMix64(2).uniform_block(16).reshape(4, 4))
        pyr = build_pyramid(m, [2])
        assert len(pyr) == 1
        assert np.array_equal(pyr[0].data, m.data)

    def test_zero_map(self):
        pyr = build_pyramid(DensityMap(3, np.zeros((8, 8))), [0, 1, 2, 3])
        assert all(m.total() == 0.0 for m in pyr)

    def test_counts_conserved_across_levels(self):
        m = DensityMap(4, SplitMix64(3).uniform_block(256).reshape(16, 16))
        pyr = build_pyramid(m, [0, 2, 4])
        totals = [lvl.total() for lvl in pyr]
        np.testing.assert_allclose(totals, totals[0], rtol=1e-12)

    def test_level_above_map_rejected(self):
        with pytest.raises(ValueError):
            build_pyramid(DensityMap(1, np.ones((2, 2))), [0, 2])

    def test_non_increasing_levels_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_pyramid(DensityMap(2, np.ones((4, 4))), [1, 1, 2])


class TestResolutionSet:
    def test_dense(self):
        assert ResolutionSet.dense(2, 6).levels == (0, 1, 2, 6)
        assert ResolutionSet.dense(2, 6).sub_levels == (0, 1, 2)
        assert ResolutionSet.dense(2, 6).prediction_level == 6

    def test_dense_requires_room(self):
        with pytest.raises(ValueError):
            ResolutionSet.dense(3, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResolutionSet((-1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ResolutionSet(())

    # int() once truncated 2.5 to 2 and read "2" as 2, so a set silently scored other levels
    @pytest.mark.parametrize("levels,bad", [((0, 2.5, 6), "2.5"), (("2",), "'2'"),
                                            ((0, np.float64(3.0)), "np.float64(3.0)")])
    def test_non_integer_level_rejected(self, levels, bad):
        with pytest.raises(ValueError, match=f"^levels must be integers, got {re.escape(bad)}$"):
            ResolutionSet(levels)

    def test_numpy_integers_become_ints(self):
        levels = ResolutionSet((np.int64(0), np.uint8(2), 6)).levels
        assert levels == (0, 2, 6) and all(type(v) is int for v in levels)


class TestProperties:
    @given(square_maps(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_count_conservation(self, m, data):
        target = data.draw(st.integers(0, m.level))
        coarse = downsample_sum(m, target)
        assert abs(coarse.total() - m.total()) <= 1e-12 * max(1.0, abs(m.total()))

    @given(square_maps(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pyramid_consistency(self, m, data):
        if m.level == 0:
            return
        j = data.draw(st.integers(1, m.level))
        i = data.draw(st.integers(0, j - 1))
        coarse, fine = build_pyramid(m, [i, j])
        redone = downsample_sum(fine, i)
        np.testing.assert_allclose(redone.data, coarse.data, rtol=1e-12, atol=1e-12)

    @given(square_maps(max_level=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_residual_prior(self, m, data):
        if m.level == 0:
            return
        lvl = data.draw(st.integers(0, m.level - 1))
        r = residual(m, downsample_sum(m, lvl))
        avg = downsample_avg(DensityMap(m.level, r.data), lvl)
        assert np.max(np.abs(avg.data)) < 1e-10

    @given(st.integers(0, 2), st.integers(1, 2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_replicate_average_adjointness(self, l1, dl, data):
        l2 = l1 + dl
        elems = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
        a = DensityMap(l1, data.draw(hnp.arrays(np.float64, (1 << l1, 1 << l1), elements=elems)))
        b = DensityMap(l2, data.draw(hnp.arrays(np.float64, (1 << l2, 1 << l2), elements=elems)))
        lhs = float(np.sum(upsample_replicate(a, l2).data * b.data))
        rhs = float(np.sum(a.data * (4.0 ** (l2 - l1)) * downsample_avg(b, l1).data))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
