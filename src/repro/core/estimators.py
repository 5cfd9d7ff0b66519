"""Sample-side estimators and variance formulas (paper Appendix C).

These functions compute the contribution of one *partially covered* leaf
to a query estimate, from the leaf's synopsis-resident stratified sample.
Conventions follow Table 1: the leaf holds ``m_i`` samples of a partition
with (estimated) population ``n_i``; ``matched`` are the samples
satisfying the query predicate.

For SUM/COUNT (weights ``w_i = 1``)::

    est  = (n_i / m_i) * sum(matched a)
    nu_s = n_i^2 / m_i^3 * (m_i * sum(matched a^2) - (sum(matched a))^2)

COUNT is SUM over ``a = 1``.  For AVG the weights are ``w_i = n_i / n_q``
and the estimator averages only the matched samples::

    est  = n_i / (|matched| * n_q) * sum(matched a)
    nu_s = w_i^2 / (m_i * |matched|^2) * (m_i * sum(a^2) - (sum a)^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .queries import AggFamily, AggFunc, Query, QueryResult


@dataclass
class PartialContribution:
    """One partial leaf's estimate and variance contribution."""

    estimate: float
    variance: float
    n_matched: int


def sum_partial_moments(n_i: float, m_i: int, s: float, s2: float
                        ) -> Tuple[float, float]:
    """SUM ``(estimate, variance)`` from matched sample moments.

    ``s``/``s2`` are the matched values' sum and sum of squares; the
    scalar-moment form lets the batched query path feed moments computed
    by one broadcasted pass per leaf without materializing per-query
    matched arrays.
    """
    if m_i <= 0:
        return 0.0, 0.0
    est = (n_i / m_i) * s
    var = (n_i * n_i) / (m_i ** 3) * max(0.0, m_i * s2 - s * s)
    return est, var


def sum_partial(n_i: float, m_i: int, matched_values: np.ndarray
                ) -> PartialContribution:
    """SUM contribution of a partial leaf (COUNT: pass ones)."""
    if m_i <= 0:
        return PartialContribution(0.0, 0.0, 0)
    s = float(matched_values.sum())
    s2 = float((matched_values * matched_values).sum())
    est, var = sum_partial_moments(n_i, m_i, s, s2)
    return PartialContribution(est, var, int(matched_values.shape[0]))


def count_partial(n_i: float, m_i: int, n_matched: int
                  ) -> PartialContribution:
    """COUNT contribution of a partial leaf: SUM over ones, whose sum
    and sum of squares are both the match count."""
    c = float(n_matched)
    est, var = sum_partial_moments(n_i, m_i, c, c)
    return PartialContribution(est, var, n_matched)


def avg_partial_moments(n_i: float, n_q: float, m_i: int, n_matched: int,
                        s: float, s2: float) -> Tuple[float, float]:
    """AVG ``(estimate, variance)`` from matched sample moments."""
    if m_i <= 0 or n_matched == 0 or n_q <= 0:
        return 0.0, 0.0
    w = n_i / n_q
    est = (n_i / (n_matched * n_q)) * s
    var = (w * w) / (m_i * n_matched * n_matched) * \
        max(0.0, m_i * s2 - s * s)
    return est, var


def avg_partial(n_i: float, n_q: float, m_i: int,
                matched_values: np.ndarray) -> PartialContribution:
    """AVG contribution of a partial leaf (weight ``w_i = n_i / n_q``)."""
    n_matched = int(matched_values.shape[0])
    if m_i <= 0 or n_matched == 0 or n_q <= 0:
        return PartialContribution(0.0, 0.0, n_matched)
    s = float(matched_values.sum())
    s2 = float((matched_values * matched_values).sum())
    est, var = avg_partial_moments(n_i, n_q, m_i, n_matched, s, s2)
    return PartialContribution(est, var, n_matched)


def moments_partial(n_i: float, m_i: int, n_matched: int, s: float,
                    s2: float) -> Tuple[float, float, float]:
    """Scaled ``(count, sum, sum of squares)`` of one partial leaf.

    The plug-in moments that compose VARIANCE/STDDEV (Section 6.6): the
    matched sample moments scaled by ``n_i / m_i`` estimate the leaf's
    contribution to the query region's population moments.
    """
    if m_i <= 0:
        return 0.0, 0.0, 0.0
    scale = n_i / m_i
    return scale * n_matched, scale * s, scale * s2


def _uniform_additive(agg, n_total, m, matched_values):
    if agg is AggFunc.COUNT:
        return count_partial(n_total, m, int(matched_values.shape[0]))
    return sum_partial(n_total, m, matched_values)


def _uniform_ratio(agg, n_total, m, matched_values):
    n_matched = int(matched_values.shape[0])
    if n_matched == 0:
        return PartialContribution(math.nan, 0.0, 0)
    mean = float(matched_values.mean())
    if n_matched > 1:
        var = float(matched_values.var(ddof=1)) / n_matched
    else:
        var = 0.0
    return PartialContribution(mean, var, n_matched)


def _uniform_extreme(agg, n_total, m, matched_values):
    n_matched = int(matched_values.shape[0])
    if not n_matched:
        return PartialContribution(math.nan, 0.0, 0)
    est = matched_values.max() if agg is AggFunc.MAX else \
        matched_values.min()
    return PartialContribution(float(est), 0.0, n_matched)


def _uniform_moments(agg, n_total, m, matched_values):
    # Plug-in moments, matching the tree's E[a^2] - E[a]^2
    # composition (Section 6.6); like MIN/MAX, no variance-of-the-
    # variance estimate is attempted (ci unavailable).
    n_matched = int(matched_values.shape[0])
    if n_matched == 0:
        return PartialContribution(math.nan, 0.0, 0)
    var = max(0.0, float(matched_values.var()))
    est = var if agg is AggFunc.VARIANCE else math.sqrt(var)
    return PartialContribution(est, 0.0, n_matched)


def _uniform_sketch(agg, n_total, m, matched_values):
    # Sketch aggregates are answered from per-engine sketch state
    # (repro.sketch), never from uniform leaf samples - a quantile
    # or distinct count reconstructed from a subsample has no
    # honest error story under this estimator's contract.
    raise ValueError(f"sketch aggregate {agg.value} is answered from "
                     f"sketch state, not uniform samples")


#: family -> ``f(agg, n_total, m, matched_values) -> PartialContribution``
_UNIFORM = {AggFamily.ADDITIVE: _uniform_additive,
            AggFamily.RATIO: _uniform_ratio,
            AggFamily.EXTREME: _uniform_extreme,
            AggFamily.MOMENTS: _uniform_moments,
            AggFamily.SKETCH: _uniform_sketch}


def uniform_estimate(agg: Union[AggFunc, str], n_total: float, m: int,
                     matched_values: np.ndarray) -> PartialContribution:
    """Plain uniform-sampling estimator (RS baseline, Section 6.1.3);
    ``agg`` may be its wire string (an unknown name: ``ValueError``)."""
    agg = AggFunc(agg)
    if m <= 0:
        return PartialContribution(0.0, 0.0, 0)
    return _UNIFORM[agg.family](agg, n_total, m, matched_values)


def uniform_scan(query: Query, schema: Sequence[str], rows: np.ndarray,
                 n_total: float) -> QueryResult:
    """Answer ``query`` by scanning *all* pooled ``rows`` (full-schema,
    a uniform sample of ``n_total`` tuples): the RS baseline, and the
    fallback for a predicate template no tree covers (Section 5.5
    option (ii)) - any predicate attributes work, at a latency that
    grows with the pool."""
    if rows.shape[0] == 0:
        raise RuntimeError("empty sample pool")
    mask = np.ones(rows.shape[0], dtype=bool)
    for dim, attr in enumerate(query.predicate_attrs):
        col = rows[:, schema.index(attr)]
        mask &= (col >= query.rect.lo[dim]) & (col <= query.rect.hi[dim])
    if query.agg is AggFunc.COUNT:
        matched = np.ones(int(mask.sum()))
    else:
        matched = rows[mask, schema.index(query.attr)]
    contrib = uniform_estimate(query.agg, n_total, rows.shape[0], matched)
    return QueryResult(contrib.estimate, 0.0, contrib.variance,
                       exact=False, n_partial=1)
