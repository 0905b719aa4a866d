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
sequence of square maps (``DensityMap``s or arrays); ``_stack`` validates it
and forms ``d`` once, and gradients come back as one array of that shape.
The array core reads every array's level from its side, so no level travels
beside an array. ``_terms`` pools ``d`` to each requested level, each from
the next finer one, and forms the residual differences; each caller takes
the norms of just the maps it reads (``_evaluate`` all of them, the
likelihood only the base level and the pairs). ``_evaluate`` adds the log
terms, the variances and the gradient. Training calls this core directly on
its arrays.

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

from .pyramid import DensityMap, _pool_sum, _replicate

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


def _stack(preds: Batch, gts: Batch) -> np.ndarray:
    """Validate a prediction/ground-truth batch and form its residual once.

    This is the boundary between batches and the array core: both batches
    non-empty and of equal length, every map square and at one level.
    Returns ``d = pred - gt`` of shape (B, side, side); ``_level(d[0])`` is
    the batch's level.
    """
    if len(preds) == 0 or len(gts) == 0:
        raise ValueError("batches must be non-empty")
    if len(preds) != len(gts):
        raise ValueError(f"batch sizes differ: {len(preds)} predictions vs {len(gts)} ground truths")
    level = _level(preds[0])
    side = 1 << level
    d = np.empty((len(preds), side, side))
    for k, (p, g) in enumerate(zip(preds, gts)):
        p_level, g_level = _level(p), _level(g)
        if p_level != level or g_level != level:
            raise ValueError(
                f"pair {k}: prediction level {p_level}, ground truth level {g_level}; "
                f"a batch needs a single map level ({level})"
            )
        np.subtract(p, g, out=d[k], dtype=np.float64)
    return d


def _sq_norm(x) -> float:
    """Batch mean of the per-sample squared L2 norm of a (B, side, side) array.

    The same pairwise sums and division as ``np.mean(np.sum(x * x, axis=(1, 2)))``
    without the wrappers' per-call overhead.
    """
    return float(np.add.reduce(np.add.reduce(x * x, axis=(1, 2))) / x.shape[0])


def _terms(d, levels: Sequence[int]):
    """Residual pyramid of the (B, side, side) residual ``d`` at the increasing ``levels``.

    The levels must lie in [0, L], where 2^L is the side of ``d``, which
    ``_stack`` or ``_evaluate`` has checked. Each level is pooled from the
    next finer requested level. Returns ``(pooled, diffs)``: per level the
    pooled residual, whose ``_sq_norm`` is its l2, and per consecutive pair
    (a, b) the residual difference ``r = pooled[b] - 4^(a-b) * rep(pooled[a])``,
    whose ``_sq_norm`` is ``l_diff``. Callers take the norms of just the maps
    they read.
    """
    level = d.shape[-1].bit_length() - 1  # _level(d[0]) without its repeated checks
    if levels[0] < 0 or levels[-1] > level:
        raise ValueError(f"requested levels {tuple(levels)} must lie in [0, {level}], the map level")
    pooled: dict[int, np.ndarray] = {}
    finer = d
    for i in reversed(levels):
        finer = pooled[i] = _pool_sum(finer, i)
    diffs = {(a, b): pooled[b] - 4.0 ** (a - b) * _replicate(pooled[a], b)
             for a, b in zip(levels, levels[1:])}
    return pooled, diffs


def l2_level(preds: Batch, gts: Batch, i: int) -> float:
    """Batch-mean squared error between sum-downsamples at level ``i``."""
    return _sq_norm(_terms(_stack(preds, gts), (i,))[0][i])


def l_diff_pair(preds: Batch, gts: Batch, j1: int, j2: int) -> float:
    """Difference loss for an arbitrary level pair j1 < j2."""
    if not 0 <= j1 < j2:
        raise ValueError(f"need 0 <= coarse < fine, got ({j1}, {j2})")
    return _sq_norm(_terms(_stack(preds, gts), (j1, j2))[1][(j1, j2)])


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


def _evaluate(d, n, include_regularizer, want_gradient):
    """The loss core on a stacked (B, side, side) residual, at the level ``_level(d[0])``.

    Returns the breakdown and, when ``want_gradient``, the gradient with
    respect to the prediction as one array of the same shape (else None).
    """
    level = _level(d[0])
    _check_n(n, level)

    levels = tuple(range(n + 1))
    pooled, diffs = _terms(d, levels)
    l2_vals = {i: _sq_norm(pooled[i]) for i in levels}
    ldiff_vals = {pair: _sq_norm(r) for pair, r in diffs.items()}
    pml = math.log(l2_vals[0] + DEFAULT_EPSILON)
    for j in range(1, n + 1):
        pml += math.log(ldiff_vals[(j - 1, j)] + DEFAULT_EPSILON)

    regularizer = 0.0
    if include_regularizer:
        regularizer = l2_vals[level] = _sq_norm(d)

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
    grad = _replicate(grad, level)
    if include_regularizer:
        grad += d
    grad *= 2.0 / len(d)
    return breakdown, grad


def pml_loss(preds: Batch, gts: Batch, n: int) -> LossBreakdown:
    """Log-sum loss over levels 0..n, without the full-resolution regularizer."""
    return _evaluate(_stack(preds, gts), n, include_regularizer=False, want_gradient=False)[0]


def total_loss(preds: Batch, gts: Batch, n: int) -> LossBreakdown:
    """Log-sum loss over levels 0..n plus the plain full-resolution squared error."""
    return _evaluate(_stack(preds, gts), n, include_regularizer=True, want_gradient=False)[0]


def loss_value_and_gradient(preds: Batch, gts: Batch, n: int) -> tuple[LossBreakdown, np.ndarray]:
    """``total_loss``'s breakdown and its (B, side, side) gradient per predicted cell, in one pass."""
    return _evaluate(_stack(preds, gts), n, include_regularizer=True, want_gradient=True)


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
