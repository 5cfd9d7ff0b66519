"""Horizontally sharded synopsis engine.

:class:`ShardedJanusAQP` scales JanusAQP past one partition tree: tids
are hash- or value-sharded across N independent
:class:`~repro.core.janus.JanusAQP` synopses over disjoint row sets, and
every operation fans out per shard:

* **ingestion** - :meth:`ShardedJanusAQP.insert_many` splits the row
  block by shard placement and pushes each slice through that shard's
  batched ingest under the shard's own lock;
* **queries** - :meth:`ShardedJanusAQP.query_many` first *routes*: the
  coordinator keeps a conservative :class:`~repro.core.routing.ShardSummary`
  per shard (live min/max plus a coarse histogram over the predicate
  attributes) and intersects each query's rectangle with them, so a
  shard proven to hold zero live rows in the region is never asked.
  The surviving shards answer sub-batches through their batched query
  engines and the per-query answers are combined with the
  statistically correct rules of :mod:`repro.core.merge` (SUM/COUNT
  add estimates and variances, AVG recombines from partial moments,
  MIN/MAX take the extremal estimate with conservative exactness).
  Routed and broadcast (``route=False``) answers are identical because
  both merge over the same contributing subset - a pruned shard's
  answer for a region it has no rows in is an exact-zero/NaN
  non-contribution by construction;
* **re-initialization** - :meth:`ShardedJanusAQP.reoptimize` staggers
  the per-shard rebuilds so at most one shard is re-partitioning at any
  time while the others stay query-ready - the paper's availability
  argument (Figure 4), load-balanced across the fleet;
* **rebalancing** - :meth:`ShardedJanusAQP.rebalance_range` moves a tid
  range between shards through the ordinary delete + insert path
  (global tids are stable across moves) and then runs the destination's
  catch-up pipeline so its synopsis re-converges.

The coordinator is written once against a **shard seam**: a list of
shard objects exposing ``insert`` / ``delete`` / ``query`` /
``reoptimize`` / ``summary`` / ``close``, a reentrant ``lock`` and the
read-only ``initialized`` / ``n_live`` / ``data_epoch`` /
``pool_size``.  :class:`LocalShard` (here) wraps an in-process
:class:`~repro.core.janus.JanusAQP`;
:class:`~repro.service.fleet.RemoteShard` is a worker process behind a
socket, and :class:`~repro.service.fleet.FleetCoordinator` is this same
coordinator built over those.  What needs whole rows in hand
(:meth:`~ShardedJanusAQP.rebalance_range`, ground truth,
``table.domain``, ``storage_cost_bytes``) is ``LocalShard``-only.

Locks, outermost first: the :class:`~repro.core.placement.PlacementMap`
lock, then one shard's ``lock`` (held across a shard mutation *and* its
routing-summary upkeep), then the summary's own lock - the table in
``docs/ARCHITECTURE.md`` says what each guards.

The seam also decides how a data-path call reaches its shards
(``blocks_on_io``): a :class:`LocalShard`'s ``query`` / ``insert`` /
``delete`` are GIL-bound Python, which a thread hop can only slow down,
so they run inline on the caller's thread in shard order; a
``RemoteShard`` call blocks on a socket while another interpreter does
the work, so those overlap on a thread pool.  Either way the
coordinator holds no global lock on the data path.  Shards are seeded
with distinct RNG streams (``config.seed + shard id``) so their sample
pools are independent.

Because the shards partition the population, the merged estimates are
unbiased whenever the per-shard estimates are, and the combined
variance is the sum of per-shard variances under the matching weights -
see :mod:`repro.core.merge` for the per-aggregate arguments.
``tests/test_sharded.py`` pins equivalence against a single-instance
engine fed the identical stream.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, maybe_span
from .janus import JanusAQP, JanusConfig, ReoptReport
from .merge import merge_planned
from .placement import PlacementMap, stagger_trigger
from .queries import Query, QueryResult, QueryTemplate
from .routing import RoutingStats, ShardSummary, plan_query_subsets
from .table import Table, table_from_array


class LocalShard:
    """One in-process shard: a :class:`JanusAQP` over its own table.

    The in-process side of the coordinator's shard seam - and what a
    fleet worker process wraps its engine in, so both sides of the wire
    run the identical ingest sequence (insert, lazy first build with
    the staggered trigger offset, repartition flag).
    """

    #: Seam fact the coordinator's dispatch reads: calls on this shard
    #: never wait on I/O (they are GIL-bound Python), so overlapping
    #: them on threads buys nothing and they run inline.
    blocks_on_io = False

    def __init__(self, engine: JanusAQP, shard_id: int,
                 n_shards: int) -> None:
        self.engine = engine
        self.table = engine.table
        self.shard_id = int(shard_id)
        self.n_shards = int(n_shards)
        #: The engine's own reentrant lock.  The coordinator holds it
        #: across every mutating call below *plus* the routing-summary
        #: upkeep that follows, which adds no lock to the order.
        self.lock = engine._lock
        self._pred_cols = np.array(
            [self.table.schema.index(a) for a in engine.predicate_attrs],
            dtype=np.intp)

    @property
    def initialized(self) -> bool:
        return self.engine.dpt is not None

    @property
    def n_live(self) -> int:
        return len(self.table)

    @property
    def data_epoch(self) -> int:
        return self.engine.data_epoch

    @property
    def pool_size(self) -> int:
        return self.engine.pool_size

    def initialize(self) -> Optional[ReoptReport]:
        """First synopsis build, if still pending and there are rows.

        Every path that first builds a shard (eager initialize, lazy
        ingest build, rebalance into an empty shard) runs through here,
        so each applies :func:`~repro.core.placement.stagger_trigger`.
        """
        if self.engine.dpt is None and len(self.table):
            self.engine.initialize()
            stagger_trigger(self.engine, self.shard_id, self.n_shards)
        return self.engine.last_reopt

    def insert(self, rows: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Ingest a row block; returns ``(local_tids, repartitioned)``.

        A shard seeing its first rows builds its synopsis on the spot;
        ``repartitioned`` tells the coordinator the batch tripped the
        shard's auto-repartition (its summary upkeep branches on it).
        """
        reparts = self.engine.n_repartitions
        local = self.engine.insert_many(rows)
        self.initialize()
        return (np.asarray(local, dtype=np.int64),
                self.engine.n_repartitions != reparts)

    def delete(self, local_tids: np.ndarray) -> np.ndarray:
        """Delete by local tid; returns the dying rows' predicate
        coordinates (captured before the slots go dead) so the
        coordinator can uncount them from its routing summary."""
        coords = self.table.rows_for(local_tids)[:, self._pred_cols]
        self.engine.delete_many(local_tids)
        return coords

    def query(self, queries: Sequence[Query],
              obs: Optional[TraceContext] = None,
              parent: Optional[int] = None) -> List[QueryResult]:
        # Explicit parent: fan-out threads have no implicit span stack,
        # and the execute span lives on the caller's thread.
        with maybe_span(obs, "shard_execute", parent=parent,
                        shard=self.shard_id, n_queries=len(queries)):
            return self.engine.query_many(queries, obs=obs)

    def reoptimize(self) -> Optional[ReoptReport]:
        """Full rebuild (``None`` for a shard with no synopsis yet)."""
        if self.engine.dpt is None:
            return None
        return self.engine.reoptimize()

    def summary(self) -> ShardSummary:
        """A fresh exact routing summary of the live rows."""
        fresh = ShardSummary(len(self._pred_cols))
        fresh.refresh(self.table.live_rows()[:, self._pred_cols])
        return fresh

    def close(self) -> None:
        """Nothing to release: an in-process engine is acyclic and dies
        with its last reference (a remote shard stops its worker)."""


class _TableView:
    """Read-only cross-shard table facade.

    Presents the union of the shard tables under *global* tids, exposing
    exactly the surface the stream driver and the benchmark harness use:
    liveness (``tid in view``), live row count and schema - plus, over
    in-process shards only, domains and ground truth.  Mutations must go
    through the coordinator so the tid maps stay consistent.
    """

    def __init__(self, owner: "ShardedJanusAQP") -> None:
        self._owner = owner

    @property
    def schema(self) -> Tuple[str, ...]:
        return self._owner.schema

    def __contains__(self, tid: int) -> bool:
        return self._owner._placement.live(tid)

    def __len__(self) -> int:
        return len(self._owner)

    def domain(self, attr: str) -> Tuple[float, float]:
        """:meth:`Table.domain` over the union: shards without a
        non-NaN value in ``attr`` are skipped, not folded in as
        ``(0.0, 0.0)``."""
        found = [b for b in (t.bounds(attr) for t in self._owner.tables)
                 if b is not None]
        if not found:
            return (0.0, 0.0)
        return (min(lo for lo, _ in found), max(hi for _, hi in found))

    def ground_truth(self, query: Query) -> float:
        return self._owner.ground_truth(query)

    def ground_truths(self, queries: Sequence[Query]) -> List[float]:
        return self._owner._union_table().ground_truths(queries)


class ShardedJanusAQP:
    """A coordinator over N disjoint JanusAQP shards.

    Parameters
    ----------
    schema:
        Attribute names; every shard's table shares it.
    agg_attr, predicate_attrs, stat_attrs:
        The query template, as in :class:`~repro.core.janus.JanusAQP`.
    n_shards:
        Number of independent synopses.
    config:
        Per-shard construction knobs.  Each shard receives a copy with
        ``seed + shard id`` so the sample pools are independent; size
        knobs (``k``, ``sample_rate``) are per shard, so the fleet's
        total synopsis budget is ``n_shards`` times the per-shard one.
    sharding:
        ``"hash"`` places tid t on shard ``t % n_shards`` (fine-grained
        round-robin, balanced under any workload); ``"attr"`` places
        rows by the *value* of :attr:`route_attr`, the first predicate
        attribute, cutting its domain at :attr:`attr_bounds` - the
        quantiles of the first insert batch (the documented
        seed-then-initialize flow), so a representative seed yields
        balanced shards.  It is the placement that makes the query
        router effective, since a range predicate on the routing
        attribute then lands on the 1-2 shards whose value stripe it
        overlaps.
    max_workers:
        Thread-pool width for the pooled fan-outs - the first builds of
        :meth:`initialize`, and every data-path call of a coordinator
        whose shards block on I/O (default: ``n_shards`` capped at
        ``os.cpu_count()`` - more fan-out threads than cores only adds
        context switching under the GIL).
    """

    #: The fan-out thread pool, created on the first pooled fan-out.
    _pool: Optional[ThreadPoolExecutor] = None

    def __init__(self, schema: Sequence[str], agg_attr: str,
                 predicate_attrs: Sequence[str], n_shards: int = 2,
                 config: Optional[JanusConfig] = None,
                 stat_attrs: Optional[Sequence[str]] = None,
                 sharding: str = "hash",
                 max_workers: Optional[int] = None) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        schema = tuple(schema)
        predicate_attrs = tuple(predicate_attrs)
        config = config or JanusConfig()
        placement = PlacementMap(n_shards, sharding,
                                 route_col=schema.index(predicate_attrs[0]))

        def fresh_shard(s: int) -> LocalShard:
            return LocalShard(JanusAQP(
                Table(schema), agg_attr, predicate_attrs,
                config=replace(config, seed=config.seed + s),
                stat_attrs=stat_attrs, metrics=self.metrics,
                metrics_labels={"shard": str(s)}), s, n_shards)

        self._assemble(
            schema, agg_attr, predicate_attrs,
            tuple(stat_attrs) if stat_attrs else schema, config, placement,
            [ShardSummary(len(predicate_attrs))
             for _ in range(n_shards)],
            fresh_shard, max_workers)

    def _assemble(self, schema: Tuple[str, ...], agg_attr: str,
                  predicate_attrs: Tuple[str, ...],
                  stat_attrs: Tuple[str, ...], config: JanusConfig,
                  placement: PlacementMap,
                  summaries: List[ShardSummary],
                  make_shard: Callable[[int], object],
                  max_workers: Optional[int] = None) -> None:
        """Wire the coordinator around its parts.

        The one construction path: ``__init__`` feeds it fresh
        in-process shards; :func:`~repro.core.persist.load_sharded`
        and the fleet constructor feed it a parsed snapshot manifest
        plus restored shards / worker handles (``make_shard(s)`` runs
        after :attr:`metrics` exists, so shards can register their
        series on the coordinator's registry).
        """
        self.schema = schema
        self.agg_attr = agg_attr
        self.predicate_attrs = predicate_attrs
        #: Attributes every shard tracks statistics for (uniform across
        #: the fleet) - the same template surface JanusAQP exposes.
        self.stat_attrs = stat_attrs
        self.config = config
        #: Attributes every shard maintains sketch state for.
        self.sketch_attrs = config.sketch_attrs
        #: The shards' common template: :meth:`query_many` rejects an
        #: off-template query before any shard or worker is asked.
        self.template = QueryTemplate(agg_attr, predicate_attrs,
                                      stat_attrs, self.sketch_attrs)
        #: The attribute ``"attr"`` placement keys on.
        self.route_attr = schema[placement.route_col]
        self.n_shards = placement.n_shards
        self.sharding = placement.sharding
        self._placement = placement
        #: Schema column indices of the predicate attributes, the
        #: coordinate order of the per-shard routing summaries.
        self._pred_cols = np.array(
            [schema.index(a) for a in predicate_attrs], dtype=np.intp)
        #: Conservative per-shard bounding summaries (all placement
        #: modes maintain them - routing prunes whenever the data is
        #: separable, however it got that way).  The planner reads
        #: them lock-free; writers rebind or update an entry only
        #: while holding that shard's lock.
        self.summaries = summaries
        #: One registry for the whole fleet: every in-process shard
        #: engine labels its stall histograms with ``shard=<id>`` here,
        #: worker handles their wire series, and the router counters
        #: land beside them, so a single exposition covers the
        #: coordinator end to end.
        self.metrics = MetricsRegistry()
        self._routing_stats = RoutingStats(self.n_shards,
                                           metrics=self.metrics)
        self._h_rebalance = self.metrics.histogram(
            "janus_engine_rebalance_seconds")
        self._pool_lock = threading.Lock()
        self._max_workers = max_workers or min(self.n_shards,
                                               os.cpu_count() or 1)
        self._shards = [make_shard(s) for s in range(self.n_shards)]
        #: Fan-outs hop to the pool only when a shard would block the
        #: caller on I/O (see ``LocalShard.blocks_on_io``).
        self._pooled = any(shard.blocks_on_io for shard in self._shards)

    @property
    def table(self) -> _TableView:
        """The cross-shard table facade (built per access: a stored
        view would be a reference cycle through its owner)."""
        return _TableView(self)

    @property
    def shards(self) -> List[JanusAQP]:
        """The in-process shard engines (``LocalShard``-only)."""
        return [shard.engine for shard in self._shards]

    @property
    def tables(self) -> List[Table]:
        """The in-process shard tables (``LocalShard``-only)."""
        return [shard.table for shard in self._shards]

    @property
    def attr_bounds(self) -> Optional[np.ndarray]:
        """``"attr"`` placement cut values (``None`` until struck)."""
        return self._placement.attr_bounds

    # ------------------------------------------------------------------ #
    # fan-out machinery
    # ------------------------------------------------------------------ #
    def _executor(self) -> ThreadPoolExecutor:
        # Double-checked under a lock: the serving tier drives the
        # coordinator from several executor threads at once, and two
        # concurrent first fan-outs must not each construct (and one
        # leak) a thread pool.  The single unlocked probe is safe: a
        # stale None only sends us into the locked slow path.
        pool = self._pool  # lock-free-read: double-checked fast path
        if pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(  # guarded-by: _pool_lock
                        max_workers=self._max_workers,
                        thread_name_prefix="janus-shard")
                pool = self._pool
        return pool

    def _fan_out(self, fn: Callable[[int], object],
                 shard_ids: Sequence[int],
                 pooled: Optional[bool] = None) -> List[object]:
        """Run ``fn(shard_id)`` per shard, results in ``shard_ids``
        order: overlapped on the pool when ``pooled`` (default: when
        the shards block on I/O), else inline on the caller's thread,
        one shard after the other."""
        shard_ids = list(shard_ids)
        if pooled is None:
            pooled = self._pooled
        if len(shard_ids) <= 1 or not pooled:
            return [fn(s) for s in shard_ids]
        pool = self._executor()
        futures = [pool.submit(fn, s) for s in shard_ids]
        return [f.result() for f in futures]

    def close(self) -> None:
        """Release the shards and the fan-out pool (idempotent)."""
        for shard in self._shards:
            shard.close()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedJanusAQP":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # probes
    # ------------------------------------------------------------------ #
    def shard_of(self, tid: int) -> int:
        """The shard currently holding a live global tid."""
        return self._placement.owner(tid)

    def shard_sizes(self) -> List[int]:
        """Live row count per shard."""
        return [shard.n_live for shard in self._shards]

    def __len__(self) -> int:
        return sum(shard.n_live for shard in self._shards)

    @property
    def pool_size(self) -> int:
        """Total pooled-sample size across shards (one blocking round
        trip per shard when the shards are worker processes)."""
        return sum(shard.pool_size for shard in self._shards)

    @property
    def data_epoch(self) -> int:
        """Monotone fleet-wide data version for result caching.

        The sum of the per-shard epochs: every mutation path (ingest,
        delete, re-optimization, rebalance) runs through some shard's
        epoch-bumping operation, so the sum strictly increases whenever
        any answer could change and the serving tier's cache
        (:mod:`repro.service.cache`) can key merged results by it.
        """
        return sum(shard.data_epoch for shard in self._shards)

    def storage_cost_bytes(self) -> int:
        """Summed synopsis footprint of the fleet (``LocalShard``-only)."""
        return sum(s.storage_cost_bytes() for s in self.shards)

    # ------------------------------------------------------------------ #
    # construction / re-initialization
    # ------------------------------------------------------------------ #
    def initialize(self) -> List[Optional[ReoptReport]]:
        """Build every non-empty shard's first synopsis.

        Shards a previous insert batch already brought up lazily are
        left as they are (their first build happened then, staggered),
        so the documented ``insert_many(seed); initialize()`` flow pays
        one synopsis build per shard, not two.  Empty shards stay
        uninitialized (there is nothing to partition) and come up
        lazily on their first insert batch.  ``LocalShard``-only: fleet
        workers warm-start from a snapshot instead.
        """
        def build(s: int) -> Optional[ReoptReport]:
            shard = self._shards[s]
            with shard.lock:
                return shard.initialize()

        return self._fan_out(build, range(self.n_shards), pooled=True)

    def reoptimize(self) -> List[Optional[ReoptReport]]:
        """Staggered re-initialization: one shard rebuilds at a time.

        Each shard's rebuild runs under that shard's own lock only, so
        while shard i rebuilds the other N-1 shards keep answering
        queries and absorbing updates - at no point is the whole fleet
        blocked, and the blocking window per shard covers 1/N of the
        data instead of all of it.
        """
        reports: List[Optional[ReoptReport]] = []
        for s in range(self.n_shards):
            shard = self._shards[s]
            if not shard.initialized:
                reports.append(None)
                continue
            with shard.lock:  # lock-order: canonical (one shard at a time, released before the next)
                reports.append(shard.reoptimize())
                # The rebuild just walked the live rows; piggyback an
                # exact summary so delete-inflated bounds tighten back.
                self._refresh_summary(s)
        return reports

    def _refresh_summary(self, s: int) -> None:
        """Adopt shard ``s``'s fresh exact routing summary.

        Callers hold the shard's lock, like for every summary update:
        the exact snapshot and the rebind are then atomic against that
        shard's writers, so a concurrent insert's count is never
        overwritten.  An unreachable shard keeps its (conservatively
        high) summary.
        """
        fresh = self._shards[s].summary()
        if fresh is not None:
            self.summaries[s] = fresh

    def reoptimize_async(self) -> threading.Thread:
        """Run the staggered re-initialization in a background thread."""
        thread = threading.Thread(target=self.reoptimize, daemon=True,
                                  name="janus-sharded-reoptimize")
        thread.start()
        return thread

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def insert(self, values: Sequence[float]) -> int:
        """Insert one row; returns its global tid."""
        return self.insert_many(
            np.asarray(values, dtype=np.float64)[None, :])[0]

    def insert_many(self, rows: np.ndarray) -> List[int]:
        """Bulk insert: one placement pass, one fan-out, global tids back.

        The block is validated, split by shard placement, and each
        slice flows through its shard's ``insert``; a shard seeing its
        first rows initializes itself on the spot.  Returns the
        assigned global tids in row order.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size == 0:
            return []
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D (n, n_attrs) array")
        if rows.shape[1] != len(self.schema):
            # Before any tid is assigned: a rejected batch must not
            # burn tids or touch a shard.
            raise ValueError(f"rows have {rows.shape[1]} columns, "
                             f"schema has {len(self.schema)}")
        tids, placement = self._placement.begin_insert(rows)

        def ingest(s: int) -> Tuple[np.ndarray, np.ndarray]:
            sel = np.flatnonzero(placement == s)
            sub = rows[sel]
            shard = self._shards[s]
            with shard.lock:
                local, repartitioned = shard.insert(sub)
                # Summary upkeep after the rows are queryable (a
                # query planned in between misses only rows whose
                # insert has not returned yet).  When the batch tripped
                # the shard's auto-repartition, the rebuild walked the
                # live data anyway: adopt an exact summary to tighten
                # delete-inflated bounds instead of widening further.
                if repartitioned:
                    self._refresh_summary(s)
                else:
                    self.summaries[s].add(sub[:, self._pred_cols])
            return sel, local

        self._placement.commit_insert(
            tids, placement,
            self._fan_out(ingest, np.unique(placement).tolist()))
        return tids.tolist()

    def delete(self, tid: int) -> None:
        """Delete one live row by global tid."""
        self.delete_many((tid,))

    def delete_many(self, tids: Sequence[int]) -> None:
        """Bulk delete by global tid, fanned out per shard.

        Validation is entirely coordinator-side (the placement map
        knows liveness): a dead or duplicated tid raises ``KeyError``
        before any shard is touched, so the fleet never ends up
        half-deleted.  Each shard hands back the dying rows' predicate
        coordinates to uncount from its routing summary; an unreachable
        shard hands back nothing and its summary stays conservatively
        high until the next exact refresh.
        """
        tid_arr = np.asarray(tids if isinstance(tids, np.ndarray)
                             else [int(t) for t in tids], dtype=np.int64)
        if tid_arr.size == 0:
            return
        owners, locals_ = self._placement.begin_delete(tid_arr)

        def drop(s: int) -> None:
            shard = self._shards[s]
            with shard.lock:
                coords = shard.delete(locals_[owners == s])
                if coords is not None:
                    self.summaries[s].remove(coords)

        self._fan_out(drop, np.unique(owners).tolist())

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> QueryResult:
        """Answer one query from the fleet (no base-table access)."""
        return self.query_many((query,))[0]

    def query_many(self, queries: Sequence[Query],
                   route: Optional[bool] = None,
                   obs: Optional[TraceContext] = None) -> List[QueryResult]:
        """Answer a query batch: plan, dispatch, merge per query.

        The router intersects each query's predicate rectangle with the
        per-shard :class:`~repro.core.routing.ShardSummary` bounds and
        histograms, yielding the *contributing subset*: the shards not
        proven to hold zero live rows in the region.  With ``route``
        (default ``None``: routed) each shard receives one
        sub-batch holding only the queries that touch it; with
        ``route=False`` every live shard still answers the whole batch
        (the honest broadcast baseline).  Either way the merge runs
        over the same contributing subset, so routed and broadcast
        answers are identical - a shard with no live rows in the
        region contributes an exact zero to SUM/COUNT and nothing to
        the AVG/VARIANCE normalizers or the MIN/MAX candidates (see
        :mod:`repro.core.routing`).

        Fast path: when the whole batch routes to one and the same
        shard, that shard's raw batched answers come back directly -
        no thread-pool hop, no merge loop (a merge over one contributor
        is the identity for every aggregate).

        ``obs`` is an optional trace context: plan/execute/merge spans
        are recorded (one ``shard_execute`` per dispatched shard) and
        the routing decision is noted for the EXPLAIN report.  The
        answer path is identical with and without it.  A query off
        :attr:`template` is a ``ValueError`` for the whole batch,
        raised before any shard is asked.  A query whose
        contributing subset includes an unreachable shard raises that
        shard's error (``FleetUnavailableError`` for a dead worker);
        queries the router proves don't need it still answer.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            self.template.check(query)
        route = route is None or bool(route)
        shards = self._shards
        live = [s for s, shard in enumerate(shards) if shard.initialized]
        if not live:
            raise RuntimeError("synopsis not initialized")
        empties = [shard.n_live == 0 for shard in shards]
        with maybe_span(obs, "plan", n_queries=len(queries)):
            subsets = self._plan(queries, live)
        self._routing_stats.record([len(c) for c in subsets], len(live),
                                   route)
        if obs is not None:
            obs.note("subsets", [list(c) for c in subsets])
            obs.note("live", list(live))
            obs.note("routed", route)
        with maybe_span(obs, "execute") as ex:
            parent = ex["id"] if ex else None
            first = subsets[0]
            if route and len(first) == 1 and \
                    all(c == first for c in subsets):
                return shards[first[0]].query(queries, obs, parent)
            get = self._dispatch(
                queries, subsets if route else [live] * len(queries),
                live, obs, parent)
        with maybe_span(obs, "merge"):
            return merge_planned(queries, subsets, get,
                                 lambda s: empties[s])

    def _plan(self, queries: Sequence[Query],
              live: Sequence[int]) -> List[List[int]]:
        """Per-query contributing shard subsets (conservative)."""
        return plan_query_subsets(queries, self.predicate_attrs,
                                  self.summaries, live)

    def _dispatch(self, queries: Sequence[Query],
                  asked: Sequence[Sequence[int]], live: Sequence[int],
                  obs: Optional[TraceContext], parent: Optional[int]):
        """Issue one sub-batched ``query`` per shard some query asks
        (``asked[qi]``: the query's contributing subset when routing,
        every live shard when broadcasting).

        Returns a ``get(shard, query_index)`` lookup over the answers.
        """
        by_shard = {s: [] for s in live}
        for qi, contrib in enumerate(asked):
            for s in contrib:
                by_shard[s].append(qi)
        work = [s for s in live if by_shard[s]]

        def run(s: int) -> dict:
            qis = by_shard[s]
            return dict(zip(qis, self._shards[s].query(
                [queries[qi] for qi in qis], obs, parent)))

        answers = dict(zip(work, self._fan_out(run, work)))
        return lambda s, qi: answers[s][qi]

    def routing_stats(self) -> dict:
        """Cumulative router counters (see
        :class:`~repro.core.routing.RoutingStats`)."""
        return self._routing_stats.to_dict()

    # ------------------------------------------------------------------ #
    # rebalancing (LocalShard-only: the rows must be in hand)
    # ------------------------------------------------------------------ #
    def rebalance_range(self, lo_tid: int, hi_tid: int, dst: int) -> int:
        """Move every live tid in ``[lo_tid, hi_tid)`` onto shard ``dst``.

        The move is an ordinary delete on each source shard followed by
        one insert on the destination - both ends keep their synopses
        consistent through the standard exact-delta maintenance, so the
        fleet stays query-correct at every point.  Global tids are
        stable across the move (only the private local tids change).
        The destination then runs its full re-initialization pipeline -
        partition re-optimization, pool resample and background
        catch-up - so its tree re-converges to the post-move data
        distribution.

        Returns the number of rows moved.
        """
        if not (0 <= dst < self.n_shards):
            raise ValueError(f"destination shard {dst} does not exist")
        t0 = time.perf_counter()
        # The whole move holds the placement lock: the tid maps must
        # not change between reading who owns a tid and rewriting that
        # ownership, or a concurrent delete would turn the gathered
        # owner/local arrays stale mid-move.  Data-path operations only
        # hold this lock briefly around their own map reads/writes
        # (never while waiting on a shard), so there is no lock-order
        # cycle - concurrent mutations simply queue behind the move.
        with self._placement.lock:
            moving, owners, locals_ = self._placement.owned_in(lo_tid,
                                                               hi_tid)
            away = owners != dst
            moving, owners, locals_ = \
                moving[away], owners[away], locals_[away]
            if moving.size == 0:
                return 0
            # Gather rows in global-tid order, then replay them as one
            # insert batch on the destination.
            rows = np.empty((moving.size, len(self.schema)))
            sources = np.unique(owners).tolist()
            for s in sources:
                sel = np.flatnonzero(owners == s)
                rows[sel] = self._shards[s].table.rows_for(locals_[sel])
                self._shards[s].engine.delete_many(locals_[sel])
            target = self._shards[dst]
            with target.lock:
                new_local, _ = target.insert(rows)
                self._refresh_summary(dst)
            self._placement.move(moving, dst, new_local)
            # Exact summaries on the source end too: a refresh (rather
            # than a remove of the moved rows) also re-tightens the
            # source shards' bounds.
            for s in sources:
                shard = self._shards[s]
                with shard.lock:  # lock-order: canonical (one shard at a time, released before the next)
                    self._refresh_summary(s)
        self._shards[dst].reoptimize()
        self._h_rebalance.observe(time.perf_counter() - t0)
        return int(moving.size)

    # ------------------------------------------------------------------ #
    # ground truth (benchmark/test harness only; LocalShard-only)
    # ------------------------------------------------------------------ #
    def _union_table(self) -> Table:
        """A throwaway table over every shard's live rows, so each
        aggregate's truth is defined once, in ``Table.ground_truth``."""
        return table_from_array(self.schema, np.concatenate(
            [t.live_rows() for t in self.tables]))

    def ground_truth(self, query: Query) -> float:
        """Exact answer over the union of the shard tables."""
        return self._union_table().ground_truth(query)
