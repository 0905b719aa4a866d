"""Marginal log-likelihood of density-map batches over a resolution set.

For a resolution set with sub-levels ``n_0 < ... < n_k`` (the prediction
level itself enters only through a localization term that density-map
training drops, so every value here is a *relative* log-likelihood), the
variance-dependent form is

    ll(sigma) = -1/2 * sum_{j=1..k} [ l_diff(n_{j-1}, n_j) / sigma_sq[j]
                                      + (4^{n_j} - 4^{n_{j-1}}) * log(2*pi*sigma_sq[j])
                                      + (n_j - n_{j-1}) * 4^{n_{j-1}} * log 4 ]
                -1/2 * ( l2(n_0) / sigma_sq[0] + 4^{n_0} * log(2*pi*sigma_sq[0]) )

Profiling out the variances at their closed-form optimum gives the
simplified form evaluated by ``log_likelihood``:

    ll* = -((2*pi - 1)/2) * 4^{n_k}
          - 1/2 * sum_{j=1..k} (4^{n_j} - 4^{n_{j-1}})
                  * log( 4^{n_j} * l_diff(n_{j-1}, n_j) / (4^{n_j} - 4^{n_{j-1}}) + eps )
          - 1/2 * 4^{n_0} * log( l2(n_0) + eps )

The guard ``eps`` is the constant ``DEFAULT_EPSILON``, the loss's guard. It
is added to each complete log argument; that placement keeps the refinement
comparison below exact. For the dense set {0..n, L} the sum collapses to
``special_case_likelihood``'s form with per-pair factor 4/3 and base weight 1.
Each form computes its own log arguments, so the two stay independent checks
of each other, and ``_report`` assembles both reports. Every function takes
its batches as the loss does: a ``(B, side, side)`` array or a sequence of
square maps, validated by ``loss._batch_level``. None of them forms the
full-size residual ``pred - gt`` of a batch of level-8 or larger maps:
``loss._pool_residual`` subtracts and pools it a slab at a time to the
finest sub-level, which is all a likelihood reads, unless that sub-level
is 0.

Refining a resolution set (inserting intermediate levels, extending down to
level 0) never lowers ll*: each insertion replaces one log term with a
weighted pair whose weighted mean argument equals the original argument, so
concavity of log does the rest. ``verify_theorem`` checks this empirically
on randomized batches and resolution sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .loss import (
    DEFAULT_EPSILON,
    Batch,
    _batch_level,
    _pool_residual,
    _sigma_from_terms,
    _sq_norm,
    _terms,
    l2_level,
    l_diff_pair,
)
from .pyramid import ResolutionSet
from .rng import SplitMix64

THEOREM_SLACK = 1e-9  # how far below the sparse set rounding may put the dense one


@dataclass(frozen=True)
class LikelihoodReport:
    """Relative log-likelihood (localization term excluded) and its terms."""

    resolution_set: ResolutionSet
    loglik: float
    terms: dict[tuple[int, int], float]
    base_term: float
    constant_part: float


def _checked_set(levels: ResolutionSet | Iterable[int], map_level: int) -> ResolutionSet:
    """The one resolution-set check: a sub-level, and no level above the maps' ``map_level``."""
    levels = ResolutionSet.of(levels)
    if not levels.sub_levels:
        raise ValueError(
            f"resolution set {levels.levels} has no sub-level below the prediction level"
        )
    if levels.prediction_level > map_level:
        raise ValueError(
            f"resolution set reaches level {levels.prediction_level}, maps are level {map_level}"
        )
    return levels


def _report(levels: ResolutionSet, args: dict[tuple[int, int], float], base_weight: float,
            base_arg: float) -> LikelihoodReport:
    """Profiled report from each pair's log argument and the base one, summed in pair order."""
    constant = -0.5 * (2.0 * math.pi - 1.0) * 4.0 ** levels.sub_levels[-1]
    terms = {(a, b): -0.5 * (4.0 ** b - 4.0 ** a) * math.log(arg + DEFAULT_EPSILON)
             for (a, b), arg in args.items()}
    base = -0.5 * base_weight * math.log(base_arg + DEFAULT_EPSILON)
    total = constant + base
    for term in terms.values():
        total += term
    return LikelihoodReport(levels, total, terms, base, constant)


def log_likelihood(
    preds: Batch,
    gts: Batch,
    levels: ResolutionSet | Iterable[int],
) -> LikelihoodReport:
    """Variance-profiled relative log-likelihood for an arbitrary resolution set."""
    level = _batch_level(preds, gts)
    levels = _checked_set(levels, level)
    subs = levels.sub_levels
    pooled, diffs = _terms(_pool_residual(preds, gts, level, subs[-1]), subs)
    args = {(a, b): 4.0 ** b * _sq_norm(r) / (4.0 ** b - 4.0 ** a) for (a, b), r in diffs.items()}
    return _report(levels, args, 4.0 ** subs[0], _sq_norm(pooled[subs[0]]))


def special_case_likelihood(
    preds: Batch,
    gts: Batch,
    n: int,
) -> LikelihoodReport:
    """Collapsed form for the dense set {0..n} plus the prediction level."""
    level = _batch_level(preds, gts)
    levels = ResolutionSet.dense(n, level)
    pooled, diffs = _terms(_pool_residual(preds, gts, level, n), levels.sub_levels)
    args = {pair: (4.0 / 3.0) * _sq_norm(r) for pair, r in diffs.items()}
    return _report(levels, args, 1.0, _sq_norm(pooled[0]))


def likelihood_with_variances(
    preds: Batch,
    gts: Batch,
    levels: ResolutionSet | Iterable[int],
    sigma_sq: Mapping[int, float],
) -> float:
    """Variance-dependent relative log-likelihood, before profiling out sigma.

    ``sigma_sq`` maps pair index j = 1..k and base index 0 to variances.
    Used to check that the closed-form variances are actually stationary, so
    it evaluates its terms through the public ``l2_level``/``l_diff_pair``
    rather than the array core the profiled forms share.
    """
    subs = _checked_set(levels, _batch_level(preds, gts)).sub_levels
    total = 0.0
    for j in range(1, len(subs)):
        a, b = subs[j - 1], subs[j]
        s = float(sigma_sq[j])
        if not s > 0.0:
            raise ValueError(f"sigma_sq[{j}] must be > 0, got {s}")
        delta = 4.0 ** b - 4.0 ** a
        total += -0.5 * (
            l_diff_pair(preds, gts, a, b) / s
            + delta * math.log(2.0 * math.pi * s)
            + (b - a) * 4.0 ** a * math.log(4.0)
        )
    s0 = float(sigma_sq[0])
    if not s0 > 0.0:
        raise ValueError(f"sigma_sq[0] must be > 0, got {s0}")
    total += -0.5 * (
        l2_level(preds, gts, subs[0]) / s0 + 4.0 ** subs[0] * math.log(2.0 * math.pi * s0)
    )
    return total


def optimal_variances(
    preds: Batch,
    gts: Batch,
    levels: ResolutionSet | Iterable[int],
) -> dict[int, float]:
    """Closed-form variance optimum for an arbitrary resolution set.

    Terms below ``DEFAULT_EPSILON`` fall back to it, as in the loss's log guard.
    """
    level = _batch_level(preds, gts)
    subs = _checked_set(levels, level).sub_levels
    pooled, diffs = _terms(_pool_residual(preds, gts, level, subs[-1]), subs)
    l2 = {subs[0]: _sq_norm(pooled[subs[0]])}
    ldiff = {pair: _sq_norm(r) for pair, r in diffs.items()}
    return _sigma_from_terms(l2, ldiff, subs)[0]


@dataclass(frozen=True)
class TheoremTrial:
    trial: int
    sparse_levels: tuple[int, ...]
    loglik_sparse: float
    loglik_dense: float
    diff: float
    violated: bool


@dataclass(frozen=True)
class TheoremReport:
    trials: tuple[TheoremTrial, ...]

    @property
    def violations(self) -> int:
        """How many trials are violated, counted from ``trials`` on each read."""
        return sum(t.violated for t in self.trials)

    def to_csv(self) -> str:
        lines = ["trial,loglik_N,loglik_Nprime,diff,violated"]
        for t in self.trials:
            lines.append(
                f"{t.trial},{t.loglik_sparse!r},{t.loglik_dense!r},{t.diff!r},{int(t.violated)}"
            )
        return "\n".join(lines) + "\n"


def verify_theorem(
    trials: int,
    seed: int,
    level: int,
    n_k: int,
    batch: int = 2,
) -> TheoremReport:
    """Compare sparse resolution sets against their dense refinement.

    Each trial draws a random batch of ``batch`` map pairs at ``level``, a
    random sparse sub-level set with maximum ``n_k``, and checks that the
    dense set {0..n_k, level} never scores a lower ``log_likelihood`` than
    the sparse one, beyond ``THEOREM_SLACK``.
    Trial t uses the stream seeded seed + t and draws one block of uniforms:
    its predictions, then its ground truths, then one selector per level
    below ``n_k``, which joins the sparse set when its selector is below 0.5.
    The block equals that many ``uniform`` calls.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < n_k < level:
        raise ValueError(f"need 0 < n_k < level, got n_k={n_k}, level={level}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    side = 1 << level
    cells = 2 * batch * side * side
    dense = ResolutionSet.dense(n_k, level)
    rows = []
    for t in range(trials):
        block = SplitMix64(seed + t).uniform_block(cells + n_k)
        pred, gt = block[:cells].reshape(2, batch, side, side)
        subs = [i for i, u in enumerate(block[cells:].tolist()) if u < 0.5] + [n_k]
        sparse = ResolutionSet(tuple(subs) + (level,))
        ll_sparse = log_likelihood(pred, gt, sparse).loglik
        ll_dense = log_likelihood(pred, gt, dense).loglik
        diff = ll_dense - ll_sparse
        rows.append(
            TheoremTrial(
                trial=t,
                sparse_levels=sparse.levels,
                loglik_sparse=ll_sparse,
                loglik_dense=ll_dense,
                diff=diff,
                violated=diff < -THEOREM_SLACK,
            )
        )
    return TheoremReport(trials=tuple(rows))
