"""Mergeable estimators: combine per-shard answers into one answer.

A :class:`~repro.core.sharded.ShardedJanusAQP` splits the data across N
independent :class:`~repro.core.janus.JanusAQP` synopses over *disjoint*
row sets.  Because the shards partition the population, their per-shard
estimates are independent random variables whose population quantities
add, which gives closed-form combination rules per aggregate:

* **SUM / COUNT** - estimates and both variance components add
  (:func:`merge_additive`).  The combined estimator has exactly the form
  a single partition tree over the union of the shards' frontiers would
  compute, so no statistical power is lost to sharding.
* **AVG** - each shard reports its estimate *and* the population
  normalizer ``n_q`` it used (``QueryResult.details["n_q"]``).  The
  coordinator reweights: with ``W_s = n_q_s / sum(n_q)``, the combined
  estimate is ``sum_s W_s * est_s`` and the variance ``sum_s W_s^2 *
  var_s`` (:func:`merge_avg`).  Expanding the weights shows this equals
  the single-tree estimator with per-node weights ``n_i / n_q_total`` -
  the same recombination-from-partial-moments that
  :func:`~repro.core.estimators.avg_partial_moments` performs inside one
  tree, lifted one level up.
* **VARIANCE / STDDEV** - shards report their plug-in moments
  ``(count, sum, sum of squares)`` (``details["moments"]``); the
  coordinator adds them and re-derives ``E[a^2] - E[a]^2``
  (:func:`merge_moments`), again identical in form to the single-tree
  composition of Section 6.6.
* **PERCENTILE / COUNT_DISTINCT / TOPK** - each shard's answer carries
  its canonical sketch blob; the coordinator folds the blobs (state is
  canonical in the union multiset, so any merge order gives identical
  bytes) and re-renders the answer from the merged sketch
  (:func:`merge_sketch`).
* **MIN / MAX** - the extremal per-shard estimate wins
  (:func:`merge_minmax`).  Exactness propagates only when every shard
  is exact *or provably empty* (zero live rows): a shard answering NaN
  merely because its samples missed the region must void the flag - the
  cross-shard incarnation of the covered-node ``None``-estimate bug
  class fixed in the single-tree engine.

Every merge also folds the exactness flag conservatively (``exact`` only
when all contributing shards are exact) and accumulates the frontier
sizes, so the combined :class:`~repro.core.queries.QueryResult` carries
a valid normal-approximation confidence interval via the usual
:meth:`~repro.core.queries.QueryResult.ci`.

The rules are closed under *subsets*: a shard with zero live rows in
the query rectangle contributes an exact 0 to the additive aggregates,
nothing to the AVG/moment normalizers, and no MIN/MAX candidate, so
merging only the shards that can contribute yields the same answer as
the full fan-out.  The query router (:mod:`repro.core.routing`) relies
on this to skip provably-empty shards; ``tests/test_routing.py`` pins
the subset/full equivalence per aggregate, including the degenerate
merge over no results at all (SUM/COUNT: exact 0; a sketch aggregate:
the empty sketch's answer; everything else: NaN, not exact).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .queries import AggFamily, AggFunc, Query, QueryResult

#: details key under which AVG answers report their normalizer.
N_Q_KEY = "n_q"
#: details key under which VARIANCE/STDDEV answers report their moments.
MOMENTS_KEY = "moments"


def _fold_frontier(results: Sequence[QueryResult]) -> tuple:
    """Summed ``(n_covered, n_partial)`` over the contributing shards."""
    return (sum(r.n_covered for r in results),
            sum(r.n_partial for r in results))


def merge_additive(results: Sequence[QueryResult]) -> QueryResult:
    """SUM/COUNT combination: estimates and variance components add.

    Empty input (every shard empty) yields an exact zero - the correct
    SUM/COUNT over no rows.
    """
    results = list(results)
    if not results:
        return QueryResult(0.0, 0.0, 0.0, exact=True)
    n_cov, n_par = _fold_frontier(results)
    return QueryResult(
        sum(r.estimate for r in results),
        sum(r.variance_catchup for r in results),
        sum(r.variance_sample for r in results),
        exact=all(r.exact for r in results),
        n_covered=n_cov, n_partial=n_par)


def merge_avg(results: Sequence[QueryResult]) -> QueryResult:
    """AVG combination: reweight shard means by their ``n_q`` shares.

    Shards that could not form an estimate (``n_q <= 0`` or a missing
    normalizer, i.e. no population in the query region) contribute
    nothing and do not void exactness: an average over zero rows is
    undefined on that shard but irrelevant to the union.  When *no*
    shard has population the combined answer is NaN, mirroring the
    single-instance behavior.
    """
    live = [r for r in results
            if float(r.details.get(N_Q_KEY, 0.0)) > 0.0]
    n_cov, n_par = _fold_frontier(results)
    n_q_total = sum(float(r.details[N_Q_KEY]) for r in live)
    if not live or n_q_total <= 0:
        return QueryResult(math.nan, 0.0, 0.0, exact=False,
                           n_covered=n_cov, n_partial=n_par)
    est = 0.0
    var_c = 0.0
    var_s = 0.0
    for r in live:
        w = float(r.details[N_Q_KEY]) / n_q_total
        est += w * r.estimate
        var_c += w * w * r.variance_catchup
        var_s += w * w * r.variance_sample
    return QueryResult(est, var_c, var_s,
                       exact=all(r.exact for r in live),
                       n_covered=n_cov, n_partial=n_par,
                       details={N_Q_KEY: n_q_total})


def merge_moments(agg: AggFunc,
                  results: Sequence[QueryResult]) -> QueryResult:
    """VARIANCE/STDDEV combination from per-shard plug-in moments.

    Exactness folds over the *contributing* shards only (positive
    moment count): a shard with no population in the region answers
    NaN/non-exact by construction, but it adds nothing to the merged
    moments and so must not veto exactness - the same convention as
    :func:`merge_avg`.
    """
    count = 0.0
    total = 0.0
    totalsq = 0.0
    exact = True
    for r in results:
        c, s, s2 = r.details.get(MOMENTS_KEY, (0.0, 0.0, 0.0))
        count += c
        total += s
        totalsq += s2
        if c > 0:
            exact = exact and r.exact
    n_cov, n_par = _fold_frontier(results)
    if count <= 0:
        return QueryResult(math.nan, 0.0, 0.0, exact=False,
                           n_covered=n_cov, n_partial=n_par,
                           details={"ci": "unavailable"})
    mean = total / count
    variance = max(0.0, totalsq / count - mean * mean)
    est = variance if agg is AggFunc.VARIANCE else math.sqrt(variance)
    return QueryResult(est, 0.0, 0.0, exact=exact,
                       n_covered=n_cov, n_partial=n_par,
                       details={"ci": "unavailable",
                                MOMENTS_KEY: (count, total, totalsq)})


def merge_minmax(agg: AggFunc, results: Sequence[QueryResult],
                 empty_ok: Optional[Sequence[bool]] = None) -> QueryResult:
    """MIN/MAX combination: the extremal estimate wins.

    ``empty_ok[i]`` marks shards the *coordinator* knows hold zero live
    rows; only those may answer NaN without voiding exactness.  Any
    other NaN means the shard had data but no extremum evidence (the
    covered-node ``None``-estimate case), so the merged answer must not
    claim to be exact even if every informative shard is.
    """
    if empty_ok is None:
        empty_ok = [False] * len(results)
    is_max = agg is AggFunc.MAX
    candidates: List[float] = []
    exact = True
    for r, provably_empty in zip(results, empty_ok):
        if math.isnan(r.estimate):
            if not provably_empty:
                exact = False
            continue
        candidates.append(r.estimate)
        exact = exact and r.exact
    n_cov, n_par = _fold_frontier(results)
    if not candidates:
        return QueryResult(math.nan, 0.0, 0.0, exact=False,
                           n_covered=n_cov, n_partial=n_par)
    est = max(candidates) if is_max else min(candidates)
    return QueryResult(est, 0.0, 0.0, exact=exact,
                       n_covered=n_cov, n_partial=n_par)


def merge_sketch(query: Query,
                 results: Sequence[QueryResult]) -> QueryResult:
    """PERCENTILE/COUNT_DISTINCT/TOPK combination: fold the blobs.

    Each contributing shard's answer carries its canonical sketch blob
    (``details["sketch"]``); blobs are deserialized, folded in any
    order (the state is canonical in the union multiset, so the order
    cannot matter) and re-rendered through the same
    :func:`~repro.sketch.registry.sketch_answer` the shards themselves
    used - which is what makes a merged answer byte-identical to the
    single engine's answer over the union of the rows.  With no
    contributors that answer is the one an engine renders from its own
    empty sketch.
    """
    from ..sketch.registry import (SKETCH_KEY, SKETCH_KIND,
                                   merge_sketch_blobs, new_sketch,
                                   sketch_answer)
    blobs = [r.details[SKETCH_KEY] for r in results
             if SKETCH_KEY in r.details]
    if len(blobs) != len(results):
        raise ValueError(
            f"{query.agg.value} merge needs a sketch blob from every "
            f"contributing shard ({len(blobs)} of {len(results)})")
    return sketch_answer(query, merge_sketch_blobs(blobs) if blobs
                         else new_sketch(SKETCH_KIND[query.agg]))


#: Each family's combination rule, as ``(query, results, empty_ok)``.
_MERGE = {
    AggFamily.ADDITIVE: lambda q, results, _: merge_additive(results),
    AggFamily.RATIO: lambda q, results, _: merge_avg(results),
    AggFamily.MOMENTS: lambda q, results, _: merge_moments(q.agg, results),
    AggFamily.EXTREME: lambda q, results, empty_ok:
        merge_minmax(q.agg, results, empty_ok),
    AggFamily.SKETCH: lambda q, results, _: merge_sketch(q, results),
}


def merge_results(query: Query, results: Sequence[QueryResult],
                  empty_ok: Optional[Sequence[bool]] = None
                  ) -> QueryResult:
    """Dispatch to the aggregate family's combination rule.

    ``results`` holds one answer per *participating* shard (shards known
    to be empty may simply be left out); ``empty_ok`` flags, per entry,
    whether that shard is provably empty - only MIN/MAX consults it.
    """
    return _MERGE[query.agg.family](query, results, empty_ok)


def merge_planned(queries: Sequence[Query],
                  subsets: Sequence[Sequence[int]], get,
                  empty_ok) -> List[QueryResult]:
    """Merge a planned batch: one combined answer per query.

    ``subsets[qi]`` is query ``qi``'s contributing shard subset (from
    the router), ``get(shard, qi)`` looks up that shard's answer and
    ``empty_ok(shard)`` reports provable emptiness for the MIN/MAX
    exactness rule.  A single-contributor query passes its shard answer
    through verbatim - a merge over one contributor is the identity for
    every aggregate, and the byte-identical pass-through is what the
    routed-vs-broadcast and fleet-vs-in-process identity gates pin.
    Shared by :class:`~repro.core.sharded.ShardedJanusAQP` and the
    fleet coordinator so both merge exactly the same way.
    """
    out: List[QueryResult] = []
    for qi, q in enumerate(queries):
        contrib = subsets[qi]
        if len(contrib) == 1:
            out.append(get(contrib[0], qi))
            continue
        out.append(merge_results(q, [get(s, qi) for s in contrib],
                                 [empty_ok(s) for s in contrib]))
    return out
