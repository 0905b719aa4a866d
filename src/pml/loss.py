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

The public functions take ``DensityMap`` batches; ``_stack`` validates them
and forms ``d`` once. ``_terms`` pools ``d`` to each requested level, each
from the next finer one, and forms the residual differences; each caller
takes the norms of just the maps it reads (``_evaluate`` all of them, the
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

from .pyramid import DensityMap, _pool_sum, _replicate, lock, maps_from_batch

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


def _stack(preds: Sequence[DensityMap], gts: Sequence[DensityMap]):
    """Validate a prediction/ground-truth batch and form its residual once.

    This is the boundary between ``DensityMap`` batches and the array core:
    both batches non-empty and of equal length, every map at one level.
    Returns ``(d, level)`` with ``d = pred - gt`` of shape (B, side, side).
    """
    if len(preds) == 0 or len(gts) == 0:
        raise ValueError("batches must be non-empty")
    if len(preds) != len(gts):
        raise ValueError(f"batch sizes differ: {len(preds)} predictions vs {len(gts)} ground truths")
    level = preds[0].level
    side = 1 << level
    d = np.empty((len(preds), side, side))
    for k, (p, g) in enumerate(zip(preds, gts)):
        if p.level != level or g.level != level:
            raise ValueError(
                f"pair {k}: prediction level {p.level}, ground truth level {g.level}; "
                f"a batch needs a single map level ({level})"
            )
        np.subtract(p.data, g.data, out=d[k])
    return d, level


def _sq_norm(x) -> float:
    """Batch mean of the per-sample squared L2 norm of a (B, side, side) array.

    The same pairwise sums and division as ``np.mean(np.sum(x * x, axis=(1, 2)))``
    without the wrappers' per-call overhead.
    """
    return float(np.add.reduce(np.add.reduce(x * x, axis=(1, 2))) / x.shape[0])


def _terms(d, level: int, levels: Sequence[int]):
    """Residual pyramid of ``d`` at the increasing ``levels``.

    Each level is pooled from the next finer requested level. Returns
    ``(pooled, diffs)``: per level the pooled residual, whose ``_sq_norm`` is
    its l2, and per consecutive pair (a, b) the residual difference
    ``r = pooled[b] - 4^(a-b) * rep(pooled[a])``, whose ``_sq_norm`` is
    ``l_diff``. Callers take the norms of just the maps they read.
    """
    if levels[0] < 0 or levels[-1] > level:
        raise ValueError(f"requested levels {tuple(levels)} must lie in [0, {level}], the map level")
    pooled: dict[int, np.ndarray] = {}
    finer, finer_level = d, level
    for i in reversed(levels):
        finer = pooled[i] = _pool_sum(finer, finer_level, i)
        finer_level = i
    diffs = {(a, b): pooled[b] - 4.0 ** (a - b) * _replicate(pooled[a], a, b)
             for a, b in zip(levels, levels[1:])}
    return pooled, diffs


def l2_level(preds: Sequence[DensityMap], gts: Sequence[DensityMap], i: int) -> float:
    """Batch-mean squared error between sum-downsamples at level ``i``."""
    return _sq_norm(_terms(*_stack(preds, gts), (i,))[0][i])


def l_diff_pair(preds: Sequence[DensityMap], gts: Sequence[DensityMap], j1: int, j2: int) -> float:
    """Difference loss for an arbitrary level pair j1 < j2."""
    if not 0 <= j1 < j2:
        raise ValueError(f"need 0 <= coarse < fine, got ({j1}, {j2})")
    return _sq_norm(_terms(*_stack(preds, gts), (j1, j2))[1][(j1, j2)])


def l_diff(preds: Sequence[DensityMap], gts: Sequence[DensityMap], j: int) -> float:
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


def _evaluate(d, level, n, include_regularizer, want_gradient):
    """The loss core on a stacked (B, side, side) residual at map level ``level``.

    Returns the breakdown and, when ``want_gradient``, the gradient with
    respect to the prediction as one array of the same shape (else None).
    """
    _check_n(n, level)

    levels = tuple(range(n + 1))
    pooled, diffs = _terms(d, level, levels)
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
        grad = _replicate(grad, j - 1, j)
        grad += diffs[(j - 1, j)] / (ldiff_vals[(j - 1, j)] + DEFAULT_EPSILON)
    grad = _replicate(grad, n, level)
    if include_regularizer:
        grad += d
    grad *= 2.0 / len(d)
    return breakdown, grad


def pml_loss(preds: Sequence[DensityMap], gts: Sequence[DensityMap], n: int) -> LossBreakdown:
    """Log-sum loss over levels 0..n, without the full-resolution regularizer."""
    return _evaluate(*_stack(preds, gts), n, include_regularizer=False, want_gradient=False)[0]


def total_loss(preds: Sequence[DensityMap], gts: Sequence[DensityMap], n: int) -> LossBreakdown:
    """Log-sum loss over levels 0..n plus the plain full-resolution squared error."""
    return _evaluate(*_stack(preds, gts), n, include_regularizer=True, want_gradient=False)[0]


def loss_value_and_gradient(
    preds: Sequence[DensityMap], gts: Sequence[DensityMap], n: int
) -> tuple[LossBreakdown, list[DensityMap]]:
    """``total_loss``'s breakdown and its gradient per predicted cell, in one pass."""
    d, level = _stack(preds, gts)
    breakdown, grad = _evaluate(d, level, n, include_regularizer=True, want_gradient=True)
    return breakdown, maps_from_batch(lock(grad), level)


def loss_gradient(preds: Sequence[DensityMap], gts: Sequence[DensityMap], n: int) -> list[DensityMap]:
    """Derivative of ``total_loss`` with respect to every predicted cell.

    Each log term contributes ``1 / (term + eps)`` times the gradient of its
    inner quadratic: ``(2/B)`` times the pooled residual (for ``l2_level``)
    or the residual difference (for ``l_diff``), replicated up to the
    prediction grid. The weights reuse exactly the values the loss evaluation
    produces.
    """
    return loss_value_and_gradient(preds, gts, n)[1]


def fd_loss_gradient(loss_of_preds, preds: Sequence[DensityMap]):
    """Central finite differences of a scalar loss over every predicted cell.

    ``loss_of_preds`` maps a prediction batch to a float. The step for map b
    is ``FD_STEP_SCALE`` (1e-6) times ``max(1, max |map b|)``. Returns one
    array per map.
    """
    grads = []
    for b in range(len(preds)):
        data = preds[b].data.copy()
        g = np.zeros_like(data)
        h = FD_STEP_SCALE * max(1.0, float(np.max(np.abs(data))))
        for idx in np.ndindex(data.shape):
            orig = data[idx]
            data[idx] = orig + h
            hi = loss_of_preds(_with_map(preds, b, data))
            data[idx] = orig - h
            lo = loss_of_preds(_with_map(preds, b, data))
            data[idx] = orig
            g[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def _with_map(preds, b, data):
    out = list(preds)
    out[b] = DensityMap(preds[b].level, data)
    return out
