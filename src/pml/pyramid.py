"""Dyadic density maps and the pyramid operators the multi-resolution loss is built on.

A density map at level ``i`` is a square ``2**i x 2**i`` grid of float64 cell
densities (persons per cell), stored row-major with ``(row, col) = (y, x)``.
Level 0 is a single cell holding the global count.

Operators:

* ``rasterize``           -- count point annotations into grid cells.
* ``downsample_sum``      -- coarsen by block sums; preserves total count.
* ``downsample_avg``      -- coarsen by block means.
* ``upsample_replicate``  -- refine by copying each cell into its descendants.
* ``residual``            -- fine map minus the coarse map spread uniformly
                             over its blocks; when the coarse map is the sum
                             downsample of the fine one, the residual
                             average-downsamples to exactly zero.
* ``build_pyramid``       -- the tuple of sum-downsamples at a resolution set,
                             coarsest first.

Replication upsampling is the adjoint of sum pooling: for any ``a`` at level
``l1`` and ``b`` at level ``l2 > l1``,
``dot(upsample_replicate(a, l2), b) == dot(a, downsample_sum(b, l1))``.
The loss gradients rely on this identity.

Block sums keep numpy's own summation order bit for bit, signs of zero
included. For C-contiguous input, ``np.add.reduce(reshape(...), axis=(-3, -1))``
(the reduction ``ndarray.sum`` calls, without its wrapper) sums each block
row's ``f`` contiguous cells, sequentially when ``f < 8`` and as its
8-accumulator pairwise tree (for ``f == 8``: three halvings
``x[..., 0::2] + x[..., 1::2]``) otherwise, and then adds the ``f`` row sums
in order. Large inputs with ``f <= 8`` rebuild that order from strided
adds, because numpy's multi-axis reduction calls its inner loop once per
block row. Each block row's sums depend on its cells alone, so inputs of
more than ``_SLAB_CELLS`` cells (1 MiB of float64, half a 2 MiB L2 cache)
are pooled a slab of whole block rows at a time into one output, in
numpy's order still, and no temporary outgrows a slab. Pooling to level 0
(one pairwise sum over all ``f^2`` cells), ``f >= 16``, small inputs and
non-contiguous ones keep numpy's expression.

All operations are pure. A ``DensityMap`` copies its data, checks it and
makes the copy read-only, so a map never shares memory with its source. The
loss and likelihood take a batch as a ``(B, side, side)`` array or as a
sequence of maps; ``np.asarray(m)`` of a map is its data, without a copy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True, eq=False)
class DensityMap:
    """Square 2^level x 2^level grid of float64 densities.

    ``data`` must have that square shape; it is copied, coerced to float64,
    and made read-only.
    """

    level: int
    data: np.ndarray

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        side = 1 << self.level
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.shape != (side, side):
            raise ValueError(f"expected shape {(side, side)} at level {self.level}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("density map contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)

    @property
    def side(self) -> int:
        return 1 << self.level

    def total(self) -> float:
        return float(self.data.sum())

    def require_nonnegative(self) -> "DensityMap":
        """Check the ground-truth invariant (all entries >= 0)."""
        if np.any(self.data < 0.0):
            raise ValueError("ground-truth density map has negative entries")
        return self


@dataclass(frozen=True, eq=False)
class PointAnnotations:
    """2-D point annotations in the square scene [0, scene_size)^2.

    ``points`` has shape (N, 2); any empty input means no points.
    """

    points: np.ndarray  # (N, 2) float64, columns (x, y)
    scene_size: float

    def __post_init__(self):
        if not (self.scene_size > 0.0) or not np.isfinite(self.scene_size):
            raise ValueError(f"scene_size must be finite and > 0, got {self.scene_size}")
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        elif pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (N, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("annotations contain non-finite coordinates")
        bad = np.nonzero((pts < 0.0) | (pts >= self.scene_size))
        if bad[0].size:
            i = int(bad[0][0])
            raise ValueError(
                f"point {i} at ({pts[i, 0]}, {pts[i, 1]}) lies outside [0, {self.scene_size})^2"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ResolutionSet:
    """Strictly increasing grid levels; the last one is the prediction level."""

    levels: tuple[int, ...]

    def __post_init__(self):
        given = tuple(self.levels)  # no copy of a tuple
        try:  # Python and numpy integers pass, as plain ints; 2.5 or "2" does not
            levels = tuple(map(operator.index, given))
        except TypeError:
            bad = next(v for v in given if not hasattr(type(v), "__index__"))
            raise ValueError(f"levels must be integers, got {bad!r}") from None
        if not levels:
            raise ValueError("resolution set must not be empty")
        if any(v < 0 for v in levels):
            raise ValueError(f"levels must be >= 0, got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels must be strictly increasing, got {levels}")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def of(cls, levels: "ResolutionSet | Iterable[int]") -> "ResolutionSet":
        if isinstance(levels, ResolutionSet):
            return levels
        return cls(tuple(levels))

    @classmethod
    def dense(cls, n: int, prediction_level: int) -> "ResolutionSet":
        """The set {0, 1, ..., n} plus the prediction level."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if prediction_level <= n:
            raise ValueError(f"prediction level {prediction_level} must exceed n = {n}")
        return cls(tuple(range(n + 1)) + (prediction_level,))

    @property
    def prediction_level(self) -> int:
        return self.levels[-1]

    @property
    def sub_levels(self) -> tuple[int, ...]:
        return self.levels[:-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.levels)


def rasterize(ann: PointAnnotations, level: int) -> DensityMap:
    """Count annotations into the uniform 2^level x 2^level partition of the scene.

    Cells are half-open, so a point on an interior grid line belongs to the
    cell with the larger index. Floating-point boundary rounding is resolved
    by clamping indices into the grid.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    side = 1 << level
    grid = np.zeros((side, side), dtype=np.float64)
    if len(ann):
        scaled = ann.points * (side / ann.scene_size)
        cols = np.minimum(np.floor(scaled[:, 0]).astype(np.int64), side - 1)
        rows = np.minimum(np.floor(scaled[:, 1]).astype(np.int64), side - 1)
        np.add.at(grid, (rows, cols), 1.0)
    return DensityMap(level, grid)


_STRIDED_MIN_CELLS = 2048  # below this, numpy's one reduction call beats a few strided adds
_SLAB_CELLS = 1 << 17  # 1 MiB of float64: larger arrays are pooled, and normed, a slab at a time


def _pool_sum(data: np.ndarray, to_level: int) -> np.ndarray:
    """Block sums of a (..., side, side) array down to the 2^to_level grid.

    The source level is read from the side. The sums are numpy's own, bit
    for bit, also where a large input is pooled in slabs (module docstring).
    Of the loss and likelihood, only the loss core's gradient path
    (``loss._evaluate``) hands this function a full-size residual of level-8
    or larger maps, but for a pooling to level 0, which sums each whole map
    at once; the read-only functions, ``total_loss`` and ``pml_loss`` among
    them, pool theirs a slab at a time as they subtract it
    (``loss._pool_residual``), with the same bits.
    """
    factor = data.shape[-1] >> to_level
    if factor == 1:
        return data
    out_side = 1 << to_level
    if (to_level == 0 or factor >= 16 or data.size < _STRIDED_MIN_CELLS
            or not data.flags.c_contiguous):
        return _block_sums(data, factor)
    if data.size <= _SLAB_CELLS:
        rows = _column_sums(data, factor)
        return np.add.reduce(rows.reshape(data.shape[:-2] + (out_side, factor, out_side)),
                             axis=-2)
    # whole block rows, _SLAB_CELLS cells or fewer at a time, into one output
    rows = data.reshape(-1, data.shape[-1])
    out = np.empty(data.shape[:-2] + (out_side, out_side))
    out_rows = out.reshape(-1, out_side)
    step = max(1, _SLAB_CELLS // (factor * data.shape[-1]))
    for k in range(0, len(out_rows), step):
        _pool_rows(rows[k * factor:(k + step) * factor], factor, out_rows[k:k + step])
    return out


def _pool_rows(rows: np.ndarray, factor: int, out: np.ndarray) -> None:
    """Pool a (k * factor, side) slab of whole block rows into ``out`` of shape (k, side // factor).

    The sums are the ones ``_pool_sum`` gives the whole input, since a block
    row's sums depend on its cells alone: column sums and an in-order reduce
    of the row sums below factor 16, and from 16 up ``_block_sums``, which
    ``_pool_sum`` itself takes there.
    """
    if factor < 16:
        np.add.reduce(_column_sums(rows, factor).reshape(len(out), factor, -1), axis=-2, out=out)
    else:
        _block_sums(rows, factor, out)


def _block_sums(data: np.ndarray, factor: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sums of the factor x factor blocks of a (..., rows, side) array: numpy's reshape-reduce."""
    shape = data.shape[:-2] + (data.shape[-2] // factor, factor, data.shape[-1] // factor, factor)
    return np.add.reduce(data.reshape(shape), axis=(-3, -1), out=out)


def _column_sums(data: np.ndarray, factor: int) -> np.ndarray:
    """Sums of each run of ``factor`` adjacent columns, in numpy's order for that run."""
    if factor == 8:
        rows = data[..., 0::2] + data[..., 1::2]
        rows = rows[..., 0::2] + rows[..., 1::2]
        return rows[..., 0::2] + rows[..., 1::2]
    rows = data[..., 0::factor] + data[..., 1::factor]
    for k in range(2, factor):
        rows += data[..., k::factor]
    return rows


def _replicate(data: np.ndarray, to_level: int) -> np.ndarray:
    """Copy each cell of a (..., side, side) array into its descendants on the 2^to_level grid."""
    factor = (1 << to_level) // data.shape[-1]
    return data.repeat(factor, axis=-2).repeat(factor, axis=-1)


def downsample_sum(m: DensityMap, target_level: int) -> DensityMap:
    """Coarsen by summing each block of 4^(level - target_level) cells."""
    if target_level < 0 or target_level > m.level:
        raise ValueError(f"target level {target_level} not in [0, {m.level}]")
    return DensityMap(target_level, _pool_sum(m.data, target_level))


def downsample_avg(m: DensityMap, target_level: int) -> DensityMap:
    """Coarsen by block means: downsample_sum scaled by 4^(target - level)."""
    scale = 4.0 ** (target_level - m.level)
    return DensityMap(target_level, downsample_sum(m, target_level).data * scale)


def upsample_replicate(m: DensityMap, target_level: int) -> DensityMap:
    """Refine by copying each cell's value into all of its descendant cells."""
    if target_level < m.level:
        raise ValueError(f"target level {target_level} must be >= map level {m.level}")
    return DensityMap(target_level, _replicate(m.data, target_level))


def residual(fine: DensityMap, coarse: DensityMap) -> DensityMap:
    """Fine map minus the coarse map spread uniformly over its blocks, at the fine level."""
    if not coarse.level < fine.level:
        raise ValueError(f"coarse level {coarse.level} must be < fine level {fine.level}")
    spread = 4.0 ** (coarse.level - fine.level) * _replicate(coarse.data, fine.level)
    return DensityMap(fine.level, fine.data - spread)


def build_pyramid(m: DensityMap, levels: ResolutionSet | Iterable[int]) -> tuple[DensityMap, ...]:
    """Sum-downsample ``m`` to every level in ``levels`` (strictly increasing).

    The maps come back coarsest first, one per level.
    """
    levels = ResolutionSet.of(levels)
    if levels.prediction_level > m.level:
        raise ValueError(f"requested level {levels.prediction_level} exceeds map level {m.level}")
    return tuple(downsample_sum(m, i) for i in levels)
