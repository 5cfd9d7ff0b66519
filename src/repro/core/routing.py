"""Query-pruning shard router: bounding summaries and batch planning.

A :class:`~repro.core.sharded.ShardedJanusAQP` fleet historically
broadcast every query to every shard and merged N answers - correct,
but the classic read amplification of partitioned serving (0.32x query
throughput at 4 shards, ``BENCH_shard_scaling.json``).  The paper's
partition tree already prunes *within* a shard through frontier
classification; this module lifts the same idea *across* shards: the
coordinator keeps a cheap conservative summary of each shard's live
predicate values and routes each query only to shards whose data can
intersect its rectangle.

:class:`ShardSummary` holds, per predicate attribute,

* a **bounding interval** ``[lo, hi]`` over the shard's live values -
  widened on insert, *never* shrunk on delete (a deleted extremum
  cannot be cheaply re-derived), re-tightened whenever the shard
  re-optimizes (the rebuild already walks the live data);
* a **coarse histogram** of exact ``int64`` live counts over fixed bin
  edges.  The first and last bins extend to +-infinity, so values
  outside the edge range (data drift since the edges were struck) are
  clamped into the boundary bins and the counts stay exact under the
  clamped semantics.  Inserts increment, deletes decrement, and a
  refresh re-bins from scratch, so counts are live-row-exact whenever
  maintenance is serialized and conservatively *high* under the
  coordinator's race ordering (inserts are counted after the rows are
  queryable, deletes are uncounted before the rows disappear).

Both signals are one-sided: they may claim a shard *could* hold
matching rows when it does not, but never the reverse.
:meth:`ShardSummary.may_contain_many` therefore proves, per query,
``shard has zero live rows inside this rectangle`` - exactly the
"provably empty" condition the merge rules of :mod:`repro.core.merge`
need to skip a shard without touching its answer: a shard with no live
rows in the region contributes an exact zero to SUM/COUNT, nothing to
AVG's normalizer or the VARIANCE moments, and no live MIN/MAX
candidate, so dropping it from the merge leaves the combined estimate,
variance and exactness untouched (``tests/test_routing.py`` pins all
seven aggregates, including the MIN/MAX exactness corner).

:class:`RoutingStats` counts what the router did - queries planned,
shard-queries pruned, and a shards-touched histogram - surfaced through
``/stats`` and ``/metrics`` on the serving tier.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry

__all__ = ["ShardSummary", "RoutingStats", "DEFAULT_BINS",
           "plan_contributors", "plan_query_subsets"]

#: Default histogram resolution per predicate attribute.  32 bins keep
#: the summary at a few hundred bytes per shard while still resolving
#: range predicates an order of magnitude narrower than a shard's span.
DEFAULT_BINS = 32


class ShardSummary:
    """Conservative bounding summary of one shard's live predicate rows.

    Thread safety: mutators and :meth:`refresh` serialize on an internal
    lock.  The planner reads without the lock - every field it reads is
    replaced atomically (numpy array rebinds; the bin edges, the
    histogram and its prefix sums rebind together, as one tuple) and
    both signals are
    one-sided, so a torn read can only make the router *less* eager,
    never unsound, provided the coordinator orders maintenance
    conservatively (count rows before they die, after they are born).
    """

    def __init__(self, n_attrs: int, n_bins: int = DEFAULT_BINS) -> None:
        if n_attrs < 1:
            raise ValueError("summary needs at least one attribute")
        if n_bins < 1:
            raise ValueError("summary needs at least one bin")
        self.n_attrs = int(n_attrs)
        self.n_bins = int(n_bins)
        self._lock = threading.Lock()
        self.n_live = 0  # guarded-by: _lock
        self.lo = np.full(n_attrs, np.inf)  # guarded-by: _lock
        self.hi = np.full(n_attrs, -np.inf)  # guarded-by: _lock
        #: ``(n_attrs, n_bins + 1)`` fixed bin edges, or ``None`` until
        #: the first rows arrive.  Edges only change on :meth:`refresh`.
        self.edges: Optional[np.ndarray] = None  # guarded-by: _lock
        with self._lock:
            self._set_counts(np.zeros((n_attrs, n_bins), dtype=np.int64))
        #: Set when non-finite predicate values were seen; the summary
        #: then refuses to prune until a refresh re-establishes order.
        self.tainted = False  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    @property
    def counts(self) -> np.ndarray:
        """``(n_attrs, n_bins)`` exact live counts per histogram bin."""
        return self._hist[1]  # lock-free-read: atomic rebind snapshot

    def _set_counts(self, counts: np.ndarray) -> None:  # requires-lock: _lock
        """Adopt a histogram over the current edges, together with its
        per-attribute prefix sums (``csum[j, i]`` = rows in bins
        ``< i``): the upkeep pays one ``cumsum`` per mutation so the
        planner pays none per call, and the planner takes edges, counts
        and sums from a single rebind - never sums over other edges."""
        csum = np.zeros((self.n_attrs, self.n_bins + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=csum[:, 1:])
        self._hist = (self.edges, counts, csum)  # guarded-by: _lock

    def _bin_of(self, coords: np.ndarray) -> np.ndarray:  # requires-lock: _lock
        """Bin index per (row, attr), clamped into the edge bins."""
        idx = np.empty(coords.shape, dtype=np.intp)
        for j in range(self.n_attrs):
            idx[:, j] = np.searchsorted(self.edges[j], coords[:, j],
                                        side="right") - 1
        return np.clip(idx, 0, self.n_bins - 1)

    def _apply(self, coords: np.ndarray, sign: int) -> None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.n_attrs:
            raise ValueError("coords must be (n, n_attrs)")
        if coords.shape[0] == 0:
            return
        with self._lock:
            if not np.isfinite(coords).all():
                self.tainted = True
                self.n_live += sign * coords.shape[0]
                return
            if sign > 0:
                self.lo = np.minimum(self.lo, coords.min(axis=0))
                self.hi = np.maximum(self.hi, coords.max(axis=0))
                if self.edges is None:
                    self._strike_edges(self.lo, self.hi)
            self.n_live += sign * coords.shape[0]
            if self.edges is not None:
                idx = self._bin_of(coords)
                counts = self._hist[1].copy()
                for j in range(self.n_attrs):
                    counts[j] += sign * np.bincount(
                        idx[:, j], minlength=self.n_bins)
                self._set_counts(counts)

    def add(self, coords: np.ndarray) -> None:
        """Count newly live rows' predicate coordinates (after insert)."""
        self._apply(coords, +1)

    def remove(self, coords: np.ndarray) -> None:
        """Uncount rows about to be deleted (call *before* the delete,
        so a concurrent :meth:`refresh` can only overcount)."""
        self._apply(coords, -1)

    def _strike_edges(self, lo: np.ndarray, hi: np.ndarray) -> None:  # requires-lock: _lock
        """Fix bin edges over ``[lo, hi]`` (degenerate spans widen)."""
        span_lo = np.where(np.isfinite(lo), lo, 0.0)
        span_hi = np.where(np.isfinite(hi), hi, 0.0)
        flat = span_hi <= span_lo
        span_hi = np.where(flat, span_lo + 1.0, span_hi)
        self.edges = np.linspace(span_lo, span_hi,
                                 self.n_bins + 1, axis=1)

    def refresh(self, coords: np.ndarray) -> None:
        """Exact rebuild from the shard's current live predicate rows.

        Called when the shard re-optimizes (the rebuild is already
        O(live rows)): bounds tighten back to the live extrema, edges
        are re-struck over them, counts re-bin from scratch, and the
        taint flag clears if the data is finite again.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.n_attrs:
            raise ValueError("coords must be (n, n_attrs)")
        with self._lock:
            self.n_live = coords.shape[0]
            if coords.shape[0] == 0:
                self.lo = np.full(self.n_attrs, np.inf)
                self.hi = np.full(self.n_attrs, -np.inf)
                self.edges = None
                self._set_counts(np.zeros((self.n_attrs, self.n_bins),
                                          dtype=np.int64))
                self.tainted = False
                return
            if not np.isfinite(coords).all():
                self.tainted = True
                return
            self.lo = coords.min(axis=0)
            self.hi = coords.max(axis=0)
            self._strike_edges(self.lo, self.hi)
            idx = self._bin_of(coords)
            counts = np.zeros((self.n_attrs, self.n_bins), dtype=np.int64)
            for j in range(self.n_attrs):
                counts[j] = np.bincount(idx[:, j], minlength=self.n_bins)
            self._set_counts(counts)
            self.tainted = False

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def may_contain_many(self, lo: np.ndarray, hi: np.ndarray
                         ) -> np.ndarray:
        """``(n_queries,)`` bool: could live rows fall in each rectangle?

        ``lo``/``hi`` are ``(n_queries, n_attrs)`` rectangle bounds in
        summary attribute order.  ``False`` is a *proof* of emptiness;
        ``True`` merely fails to prove it.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        nq = lo.shape[0]
        # The planner reads without the lock by design (see the class
        # docstring): every field rebinds atomically and both signals
        # are one-sided, so a torn read only prunes less.
        if self.n_live <= 0:  # lock-free-read: one-sided planner probe
            return np.zeros(nq, dtype=bool)
        edges, _, csum = self._hist  # lock-free-read: atomic rebind snapshot
        if self.tainted or edges is None:  # lock-free-read: one-sided planner probe
            return np.ones(nq, dtype=bool)
        # Bounding-interval test per attribute: disjoint anywhere kills
        # the conjunction.
        lo_ok = hi >= self.lo  # lock-free-read: one-sided planner probe
        hi_ok = lo <= self.hi  # lock-free-read: one-sided planner probe
        may = (lo_ok & hi_ok).all(axis=1)
        if not may.any():
            return may
        # Histogram test: a query overlaps bins [i0, i1] per attribute
        # (boundary bins reach +-inf, covering values clamped past the
        # edges - so a bound's bin is its rank among the *interior*
        # edges, already in range); all-zero overlap on any attribute
        # proves emptiness.
        for j in range(self.n_attrs):
            inner = edges[j, 1:-1]
            i0 = np.searchsorted(inner, lo[:, j], side="right")
            i1 = np.searchsorted(inner, hi[:, j], side="right")
            may &= csum[j, i1 + 1] > csum[j, i0]
        return may

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> str:
        """EXPLAIN-only reason code for one query rectangle.

        Mirrors :meth:`may_contain_many`'s decision on a single
        ``(n_attrs,)`` rectangle, but reports *which* signal decided:
        ``"no-live-rows"``, ``"unsummarized"`` (tainted or no edges
        yet - never pruned), ``"bounds-disjoint"``,
        ``"histogram-empty"`` or ``"contributing"``.  Reads lock-free
        with the same one-sided caveats as the planner; not used on
        the answer path.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if self.n_live <= 0:  # lock-free-read: one-sided planner probe
            return "no-live-rows"
        if self.tainted or self.edges is None:  # lock-free-read: one-sided planner probe
            return "unsummarized"
        if not self.may_contain_many(lo[None, :], hi[None, :])[0]:
            if ((hi < self.lo) | (lo > self.hi)).any():  # lock-free-read: one-sided planner probe
                return "bounds-disjoint"
            return "histogram-empty"
        return "contributing"

    # ------------------------------------------------------------------ #
    # persistence (manifest payloads; see core/persist.py)
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The summary as flat arrays for a fleet manifest."""
        with self._lock:
            has_edges = self.edges is not None
            return {
                "meta": np.array([self.n_attrs, self.n_bins, self.n_live,
                                  int(has_edges), int(self.tainted)],
                                 dtype=np.int64),
                "lo": self.lo.copy(),
                "hi": self.hi.copy(),
                "edges": (self.edges.copy() if has_edges else
                          np.zeros((self.n_attrs, 0))),
                "counts": self._hist[1].copy(),
            }

    @classmethod
    def from_state_arrays(cls, arrays: Dict[str, np.ndarray]
                          ) -> "ShardSummary":
        """Inverse of :meth:`state_arrays`: bit-identical routing state."""
        n_attrs, n_bins, n_live, has_edges, tainted = \
            (int(v) for v in arrays["meta"])
        summary = cls(n_attrs, n_bins)
        summary.n_live = n_live
        summary.lo = np.asarray(arrays["lo"], dtype=np.float64).copy()
        summary.hi = np.asarray(arrays["hi"], dtype=np.float64).copy()
        if has_edges:
            summary.edges = np.asarray(arrays["edges"],
                                       dtype=np.float64).copy()
        with summary._lock:
            summary._set_counts(np.asarray(arrays["counts"],
                                           dtype=np.int64).copy())
        summary.tainted = bool(tainted)
        return summary


class RoutingStats:
    """Coordinator-side routing counters (thread-safe, monotone).

    ``shards_touched[k]`` counts queries answered by exactly ``k``
    shards; ``n_pruned_shard_queries`` counts (query, shard) pairs the
    router proved empty and never dispatched (broadcast-mode queries
    still count their prunes: the merge skipped those answers).

    Registry-backed: the counts live in ``janus_routing_*``
    instruments (pass the owning engine's registry so they surface on
    ``/metrics``); :meth:`to_dict` reads them back for ``/stats``.
    """

    def __init__(self, n_shards: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.n_shards = int(n_shards)
        registry = metrics if metrics is not None else MetricsRegistry()
        self._c_queries = registry.counter("janus_routing_queries_total")
        self._c_routed = registry.counter(
            "janus_routing_routed_queries_total")
        self._c_broadcast = registry.counter(
            "janus_routing_broadcast_queries_total")
        self._c_pruned = registry.counter(
            "janus_routing_pruned_shard_queries_total")
        self._c_touched = [
            registry.counter("janus_routing_shards_touched_total",
                             shards=str(k))
            for k in range(self.n_shards + 1)]

    def record(self, touched: Sequence[int], n_live: int,
               routed: bool) -> None:
        """Fold one planned batch: ``touched[i]`` shards for query i."""
        nq = len(touched)
        self._c_queries.inc(nq)
        self._c_pruned.inc(max(0, nq * n_live - sum(touched)))
        for k, c in Counter(touched).items():
            self._c_touched[min(k, self.n_shards)].inc(c)
        if routed:
            self._c_routed.inc(nq)
        else:
            self._c_broadcast.inc(nq)

    def to_dict(self) -> Dict[str, object]:
        n_queries = int(self._c_queries.value)
        hist = [int(c.value) for c in self._c_touched]
        return {
            "n_queries": n_queries,
            "n_routed_queries": int(self._c_routed.value),
            "n_broadcast_queries": int(self._c_broadcast.value),
            "n_pruned_shard_queries": int(self._c_pruned.value),
            "shards_touched_hist": hist,
            "mean_shards_touched":
                sum(k * c for k, c in enumerate(hist)) / max(1, n_queries),
        }


def plan_contributors(summaries: Sequence[Optional[ShardSummary]],
                      shard_ids: Sequence[int],
                      lo: np.ndarray, hi: np.ndarray) -> List[List[int]]:
    """Per-query contributing shard subsets for a rectangle batch.

    ``summaries[s]`` may be ``None`` (no summary - e.g. a foreign shard
    type), which conservatively keeps shard ``s`` in every subset.
    Returns, per query, the ids from ``shard_ids`` the router could not
    prove empty, preserving ``shard_ids`` order so downstream merges
    stay deterministic.
    """
    masks = []
    nq = lo.shape[0]
    for s in shard_ids:
        summary = summaries[s]
        if summary is None:
            masks.append(np.ones(nq, dtype=bool))
        else:
            masks.append(summary.may_contain_many(lo, hi))
    return [[s for s, mask in zip(shard_ids, masks) if mask[qi]]
            for qi in range(nq)]


def plan_query_subsets(queries: Sequence,
                       predicate_attrs: Tuple[str, ...],
                       summaries: Sequence[Optional[ShardSummary]],
                       live: Sequence[int]) -> List[List[int]]:
    """Contributing shard subsets for a :class:`~repro.core.queries.Query`
    batch - the planning step both the in-process
    :class:`~repro.core.sharded.ShardedJanusAQP` and the fleet
    coordinator (:mod:`repro.service.fleet`) run, shared so their routed
    answers come from identical subsets.

    The queries are on the coordinator's template (its ``query_many``
    checked them), so every rectangle is in ``predicate_attrs`` order,
    the order the summaries are kept in.
    """
    lo = np.empty((len(queries), len(predicate_attrs)))
    hi = np.empty_like(lo)
    for qi, q in enumerate(queries):
        lo[qi] = q.rect.lo
        hi[qi] = q.rect.hi
    return plan_contributors(summaries, live, lo, hi)
