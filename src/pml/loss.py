"""Multi-resolution losses over density-map batches and their analytic gradients.

Every term is a function of the residual ``d = pred - gt``. With ``S_i``
summing blocks down to the 2^i grid and ``R`` replicating each cell into its
descendants, the per-level error and the difference loss of levels a < b are

    l2_level(i)  = mean_b || S_i(d_b) ||^2
    l_diff(a, b) = mean_b || r_(a,b) ||^2,   r_(a,b) = S_b(d) - 4^(a-b) R(S_a(d))

(norms sum over cells). ``l_diff`` is computed in this residual form, so it
is never negative; the equal ``l2_level(b) - 4^(a-b) l2_level(a)`` would lose
it to cancellation once a count error dominates. The progressive
multi-resolution loss over levels 0..n is

    pml = log(l2_level(0) + eps) + sum_{j=1..n} log(l_diff(j-1, j) + eps)

and the total training loss adds the full-resolution squared error as a
plain (un-logged) regularizer: ``total = pml + l2_level(L)``. With n = 0 the
total degenerates to the single-resolution L2 setting. ``eps``, the constant
``DEFAULT_EPSILON``, guards every logarithm against a perfect fit. Batch
means are computed before the log, in batch-index order, so results are
reproducible.

The public functions take a batch as a ``(B, side, side)`` array or as a
sequence of square maps (``DensityMap``s or arrays), which ``_batch_level``
validates. ``pml_loss``, ``total_loss``, ``loss_value_and_gradient`` and
training pass their batch to the loss core ``_evaluate``, and gradients come
back as one array of the batch's shape. Only the gradient path always forms
``d``. The loss without a gradient and the functions that read only pooled
levels (``l2_level`` below the map level, ``l_diff_pair`` and the
likelihood) get the residual pooled to their finest level, and
``total_loss`` its regularizer, from ``_pool_residual``. It subtracts and
pools a batch a slab at a time when its maps hold half of ``_SLAB_CELLS`` or
more (level 8 up) and the finest level lies strictly between 0 and the map
level, and forms ``d`` otherwise. The array core reads every array's level
from its side, so no level travels beside an array. ``_terms`` pools the
residual to each requested level, each from the next finer one, and forms
the residual differences; each caller takes the norms of just the maps it
reads (``_evaluate`` all of them, the likelihood only the base level and the
pairs). ``_evaluate`` adds the log terms, the variances and the gradient.

Replication is the adjoint of sum pooling, and the coarse part of ``r``
pools to zero, so the gradient is the replicated residuals:

    (2/B) * [ R(S_0(d)) / (l2_level(0) + eps)
              + sum_j R(r_(j-1,j)) / (l_diff(j-1, j) + eps) + d ]

The per-pair variance estimates that maximize the underlying Gaussian
likelihood come out in closed form:

    sigma_sq[j] = l_diff(pair j) / (4^{n_j} - 4^{n_{j-1}}),   j >= 1
    sigma_sq[0] = 4^{-n_0} * l2_level(n_0)

``_evaluate`` reports them as ``sigma_sq`` and ``likelihood.optimal_variances``
evaluates them for any resolution set; zero losses fall back to the same
``eps`` guard and set a flag instead of erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .pyramid import _SLAB_CELLS, DensityMap, _pool_rows, _pool_sum, _replicate

# a (B, side, side) array, or a sequence of square 2^level x 2^level maps
Batch = np.ndarray | Sequence[DensityMap | np.ndarray]

DEFAULT_EPSILON = 1e-12
FD_STEP_SCALE = 1e-6  # fd_loss_gradient's step per unit of a map's largest |value|


def alpha_coefficients(n: int) -> tuple[float, ...]:
    """Resolution weights alpha_0..alpha_n of the level re-weighting system.

    They are the unique solution of the triangular system
    ``(4^j - 4^{j-1}) * sum_{k=j..n} alpha_k = 1`` for j = 1..n together with
    ``sum_k alpha_k = 1``, solved here by back-substitution; applying them to
    the per-n weighted log terms collapses the weighted average to
    ``log l2(0) + sum_j log l_diff(j)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # tails[j] = sum_{k=j..n} alpha_k; tails[0] = 1 from the normalization row
    tails = [1.0] + [1.0 / (4.0 ** j - 4.0 ** (j - 1)) for j in range(1, n + 1)] + [0.0]
    return tuple(tails[j] - tails[j + 1] for j in range(n + 1))


@dataclass(frozen=True)
class LossBreakdown:
    """Every term of one loss evaluation, for reporting and audits."""

    l2_per_level: dict[int, float]
    ldiff_per_pair: dict[tuple[int, int], float]
    pml: float
    regularizer: float
    total: float
    sigma_sq: dict[int, float]
    sigma_guarded: bool = False

    def to_flat_dict(self) -> dict[str, float]:
        """Flat key/value report of all terms."""
        out: dict[str, float] = {}
        for i in sorted(self.l2_per_level):
            out[f"l2_level_{i}"] = self.l2_per_level[i]
        for (a, b) in sorted(self.ldiff_per_pair):
            out[f"ldiff_{a}_{b}"] = self.ldiff_per_pair[(a, b)]
        for j in sorted(self.sigma_sq):
            out[f"sigma_sq_{j}"] = self.sigma_sq[j]
        out["pml"] = self.pml
        out["regularizer"] = self.regularizer
        out["total"] = self.total
        return out


def _level(m) -> int:
    """The level of a square map with a power-of-two side, read from its shape."""
    shape = np.shape(m)
    side = shape[-1] if shape else 0
    if shape != (side, side) or side < 1 or side & (side - 1):
        raise ValueError(f"a map must be square with a power-of-two side, got shape {shape}")
    return side.bit_length() - 1


def _batch_level(preds: Batch, gts: Batch) -> int:
    """Validate a prediction/ground-truth batch and return its map level.

    This is the boundary between batches and the array core: both batches
    non-empty and of equal length, every map square and at one level. Two
    arrays of one shape are checked once, through their first map.
    """
    if len(preds) == 0 or len(gts) == 0:
        raise ValueError("batches must be non-empty")
    if len(preds) != len(gts):
        raise ValueError(f"batch sizes differ: {len(preds)} predictions vs {len(gts)} ground truths")
    level = _level(preds[0])
    if not _one_array_shape(preds, gts):
        for k, (p, g) in enumerate(zip(preds, gts)):
            p_level, g_level = _level(p), _level(g)
            if p_level != level or g_level != level:
                raise ValueError(
                    f"pair {k}: prediction level {p_level}, ground truth level {g_level}; "
                    f"a batch needs a single map level ({level})"
                )
    return level


def _one_array_shape(preds: Batch, gts: Batch) -> bool:
    """Whether the batches are two arrays of one shape, which are checked and subtracted whole."""
    return (isinstance(preds, np.ndarray) and isinstance(gts, np.ndarray)
            and preds.shape == gts.shape)


def _pool_residual(preds: Batch, gts: Batch, level: int, t: int,
                   norm: bool = False) -> np.ndarray | tuple[np.ndarray, float]:
    """``_pool_sum(pred - gt, t)`` of a batch that ``_batch_level`` found at ``level``, bit for bit.

    With ``norm`` it returns ``(pooled, _sq_norm(pred - gt))``, the norm with
    ``_sq_norm``'s bits. A batch of maps under half a slab (a map per slab
    pools them slower than the formed residual), or pooled to level 0 or not
    at all (``t == level``, the loss core's fresh C-ordered residual) forms
    the residual: two arrays of one shape in one subtraction, which gives the
    per-pair loop's values. A batch of larger maps never forms it. Each map
    is subtracted a slab of whole block rows at a time into one reused
    float64 buffer of at most ``_SLAB_CELLS`` cells (one block row if that is
    more), and ``_pool_rows`` pools the slab into the output, as ``_pool_sum``
    pools a whole residual. For the norm the slab is then squared in place
    and summed in ``_sq_norm``'s runs: a whole level-8 map, or ``_SLAB_CELLS``
    cells of a larger one, which a slab always holds a whole number of.
    """
    side = 1 << level
    if 2 << 2 * level < _SLAB_CELLS or t in (0, level):
        if _one_array_shape(preds, gts):
            d = np.subtract(preds, gts, dtype=np.float64, order="C")
        else:
            d = np.empty((len(preds), side, side))
            for k, (p, g) in enumerate(zip(preds, gts)):
                np.subtract(p, g, out=d[k], dtype=np.float64)
        pooled = _pool_sum(d, t)
        return (pooled, _sq_norm(d)) if norm else pooled
    factor = side >> t
    rows = max(factor, min(side, _SLAB_CELLS // side))
    run = min(side * side, _SLAB_CELLS)
    slab = np.empty((rows, side))
    out = np.empty((len(preds), 1 << t, 1 << t))
    sums = np.empty((len(preds), side * side // run))
    for k, (p, g) in enumerate(zip(preds, gts)):
        p, g = np.asarray(p), np.asarray(g)
        for r in range(0, side, rows):
            np.subtract(p[r:r + rows], g[r:r + rows], out=slab, dtype=np.float64)
            _pool_rows(slab, factor, out[k, r // factor:(r + rows) // factor])
            if norm:
                runs = np.multiply(slab, slab, out=slab).reshape(-1, run)
                np.add.reduce(runs, axis=1, out=sums[k, r * side // run:(r + rows) * side // run])
    return (out, _mean_of_run_sums(sums)) if norm else out


def _sq_norm(x) -> float:
    """Batch mean of the per-sample squared L2 norm of a (B, side, side) array.

    The same pairwise sums and division as ``np.mean(np.sum(x * x, axis=(1, 2)))``
    without the wrappers' per-call overhead. A C-contiguous array of more than
    ``_SLAB_CELLS`` cells is squared a slab at a time, so no full-size square
    is made. The bits stay numpy's: it sums a C-contiguous map as one pairwise
    run, and its pairwise sum of a power-of-two run adds the sums of the two
    halves, so a map's slab sums, added in halves, are the map's sum.
    """
    if x.size <= _SLAB_CELLS or not x.flags.c_contiguous:
        return float(np.add.reduce(np.add.reduce(x * x, axis=(1, 2))) / x.shape[0])
    run = min(x[0].size, _SLAB_CELLS)  # cells per sum: a whole map, or a slab of one
    runs = x.reshape(-1, run)
    step = _SLAB_CELLS // run
    square = np.empty((step, run))
    sums = np.empty(len(runs))
    for k in range(0, len(runs), step):
        part = runs[k:k + step]
        np.add.reduce(np.multiply(part, part, out=square[:len(part)]), axis=1, out=sums[k:k + step])
    return _mean_of_run_sums(sums.reshape(len(x), -1))


def _mean_of_run_sums(sums: np.ndarray) -> float:
    """``_sq_norm`` from a (B, runs) array of each map's squared sums over its power-of-two runs."""
    while sums.shape[1] > 1:
        sums = sums[:, 0::2] + sums[:, 1::2]
    return float(np.add.reduce(sums[:, 0]) / len(sums))


def _terms(d, levels: Sequence[int]):
    """Residual pyramid of the (B, side, side) residual ``d`` at the increasing ``levels``.

    ``d`` is the residual, or the residual already pooled to ``levels[-1]``,
    and the levels lie in [0, L], where 2^L is its side; the caller has
    checked them. Each level is pooled from the next finer requested level.
    Returns ``(pooled, diffs)``: per level the pooled residual, whose
    ``_sq_norm`` is its l2, and per consecutive pair (a, b) the residual
    difference ``r = pooled[b] - 4^(a-b) * rep(pooled[a])``, whose
    ``_sq_norm`` is ``l_diff``. Callers take the norms of just the maps they
    read.
    """
    pooled: dict[int, np.ndarray] = {}
    finer = d
    for i in reversed(levels):
        finer = pooled[i] = _pool_sum(finer, i)
    diffs = {(a, b): pooled[b] - 4.0 ** (a - b) * _replicate(pooled[a], b)
             for a, b in zip(levels, levels[1:])}
    return pooled, diffs


def _batch_terms(preds: Batch, gts: Batch, levels: Sequence[int]):
    """``_terms`` of a batch's residual at the increasing ``levels``, pooled by ``_pool_residual``."""
    level = _batch_level(preds, gts)
    if levels[0] < 0 or levels[-1] > level:
        raise ValueError(f"requested levels {tuple(levels)} must lie in [0, {level}], the map level")
    return _terms(_pool_residual(preds, gts, level, levels[-1]), levels)


def l2_level(preds: Batch, gts: Batch, i: int) -> float:
    """Batch-mean squared error between sum-downsamples at level ``i``."""
    return _sq_norm(_batch_terms(preds, gts, (i,))[0][i])


def l_diff_pair(preds: Batch, gts: Batch, j1: int, j2: int) -> float:
    """Difference loss for an arbitrary level pair j1 < j2."""
    if not 0 <= j1 < j2:
        raise ValueError(f"need 0 <= coarse < fine, got ({j1}, {j2})")
    return _sq_norm(_batch_terms(preds, gts, (j1, j2))[1][(j1, j2)])


def l_diff(preds: Batch, gts: Batch, j: int) -> float:
    """Difference loss for the consecutive pair (j-1, j)."""
    if j < 1:
        raise ValueError(f"j must be >= 1 (level {j} has no coarser neighbour)")
    return l_diff_pair(preds, gts, j - 1, j)


def _sigma_from_terms(
    l2_vals: Mapping[int, float],
    ldiff_vals: Mapping[tuple[int, int], float],
    sub_levels: Sequence[int],
) -> tuple[dict[int, float], bool]:
    guarded = False
    n0 = sub_levels[0]
    base = l2_vals[n0]
    if base < DEFAULT_EPSILON:
        base, guarded = DEFAULT_EPSILON, True
    sigma = {0: 4.0 ** (-n0) * base}
    for j in range(1, len(sub_levels)):
        a, b = sub_levels[j - 1], sub_levels[j]
        v = ldiff_vals[(a, b)]
        if v < DEFAULT_EPSILON:
            v, guarded = DEFAULT_EPSILON, True
        sigma[j] = v / (4.0 ** b - 4.0 ** a)
    return sigma, guarded


def _check_n(n: int, level: int) -> None:
    """Reject a finest pml level ``n`` outside [0, level], the prediction level."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > level:
        raise ValueError(f"n = {n} exceeds prediction level {level}")


def _evaluate(preds: Batch, gts: Batch, n, include_regularizer, want_gradient):
    """The loss core: a batch's breakdown and, when ``want_gradient``, its gradient (else None).

    The gradient with respect to the prediction is one (B, side, side)
    array. Only the gradient path forms the residual ``d``, as a fresh
    C-ordered array, and writes the gradient into it, so no other full-size
    array is made. Its bits are those of replicating the coarse gradient to
    the full grid, adding ``d`` and scaling by ``2/B``. Without the gradient
    the core reads the residual pooled to ``n`` and, with the regularizer,
    its norm from ``_pool_residual``, which streams a batch of level-8 or
    larger maps for 0 < n < L and never forms ``d``; the bits are the same.
    """
    level = _batch_level(preds, gts)
    _check_n(n, level)
    t = level if want_gradient else n  # the finest level read: d itself for the gradient
    if include_regularizer:
        finest, regularizer = _pool_residual(preds, gts, level, t, norm=True)
    else:
        finest, regularizer = _pool_residual(preds, gts, level, t), 0.0

    levels = tuple(range(n + 1))
    pooled, diffs = _terms(finest, levels)
    l2_vals = {i: _sq_norm(pooled[i]) for i in levels}
    ldiff_vals = {pair: _sq_norm(r) for pair, r in diffs.items()}
    pml = math.log(l2_vals[0] + DEFAULT_EPSILON)
    for j in range(1, n + 1):
        pml += math.log(ldiff_vals[(j - 1, j)] + DEFAULT_EPSILON)
    if include_regularizer:
        l2_vals[level] = regularizer

    sigma, guarded = _sigma_from_terms(l2_vals, ldiff_vals, levels)
    breakdown = LossBreakdown(
        l2_per_level=l2_vals,
        ldiff_per_pair=ldiff_vals,
        pml=pml,
        regularizer=regularizer,
        total=pml + regularizer,
        sigma_sq=sigma,
        sigma_guarded=guarded,
    )
    if not want_gradient:
        return breakdown, None

    # sum of rep(pooled_0)/(l2_0+eps) and rep(r_j)/(l_diff_j+eps), replicated
    # up one level at a time so only the last step touches the full grid
    grad = pooled[0] / (l2_vals[0] + DEFAULT_EPSILON)
    for j in range(1, n + 1):
        grad = _replicate(grad, j)
        grad += diffs[(j - 1, j)] / (ldiff_vals[(j - 1, j)] + DEFAULT_EPSILON)
    # the last replication, along columns only, is broadcast over each block's
    # rows of d; nothing reads d or its aliases (pooled[level]) after this
    d = finest
    f = d.shape[-1] >> n
    rows = d.reshape(len(d), 1 << n, f, d.shape[-1])
    cols = grad.repeat(f, axis=-1)[:, :, None, :]
    if include_regularizer:
        rows += cols
    else:
        rows[...] = cols
    d *= 2.0 / len(d)
    return breakdown, d


def pml_loss(preds: Batch, gts: Batch, n: int) -> LossBreakdown:
    """Log-sum loss over levels 0..n, without the full-resolution regularizer."""
    return _evaluate(preds, gts, n, include_regularizer=False, want_gradient=False)[0]


def total_loss(preds: Batch, gts: Batch, n: int) -> LossBreakdown:
    """Log-sum loss over levels 0..n plus the plain full-resolution squared error."""
    return _evaluate(preds, gts, n, include_regularizer=True, want_gradient=False)[0]


def loss_value_and_gradient(preds: Batch, gts: Batch, n: int) -> tuple[LossBreakdown, np.ndarray]:
    """``total_loss``'s breakdown and its (B, side, side) gradient per predicted cell, in one pass."""
    return _evaluate(preds, gts, n, include_regularizer=True, want_gradient=True)


def loss_gradient(preds: Batch, gts: Batch, n: int) -> np.ndarray:
    """Derivative of ``total_loss`` with respect to every predicted cell.

    Each log term contributes ``1 / (term + eps)`` times the gradient of its
    inner quadratic: ``(2/B)`` times the pooled residual (for ``l2_level``)
    or the residual difference (for ``l_diff``), replicated up to the
    prediction grid. The weights reuse exactly the values the loss evaluation
    produces. Returns one (B, side, side) array.
    """
    return loss_value_and_gradient(preds, gts, n)[1]


def fd_loss_gradient(loss_of_preds, preds: Batch) -> np.ndarray:
    """Central finite differences of a scalar loss over every predicted cell.

    ``loss_of_preds`` maps a (B, side, side) prediction batch to a float; it is
    handed one float64 copy of ``preds``, perturbed one cell at a time in place.
    The step for map b is ``FD_STEP_SCALE`` (1e-6) times ``max(1, max |map b|)``.
    Returns the gradient as one array of the batch's shape.
    """
    data = np.array(preds, dtype=np.float64)
    grad = np.zeros_like(data)
    for b in range(len(data)):
        h = FD_STEP_SCALE * max(1.0, float(np.max(np.abs(data[b]))))
        for idx in np.ndindex(data[b].shape):
            cell = (b,) + idx
            orig = data[cell]
            data[cell] = orig + h
            hi = loss_of_preds(data)
            data[cell] = orig - h
            lo = loss_of_preds(data)
            data[cell] = orig
            grad[cell] = (hi - lo) / (2.0 * h)
    return grad
