"""JanusAQP: the full dynamic AQP system (paper Sections 3-5).

:class:`JanusAQP` wires together every substrate:

* a :class:`~repro.core.table.Table` playing archival storage,
* a :class:`~repro.sampling.pool.SamplePool`: the pooled sample, its
  synopsis-resident rows and a :class:`~repro.index.range_index.
  RangeIndex` over their predicate coordinates, held once (the "store S
  only once in a dynamic range tree" of Section 5.5),
* a :class:`~repro.core.dpt.DynamicPartitionTree` whose leaf strata are
  virtual partitions of the pool (its rows are filed by leaf),
* the partitioners of Section 5 (binary-search in 1-D, greedy k-d tree in
  higher dimensions),
* the re-initialization pipeline of Figure 4 (:meth:`JanusAQP._rebuild`,
  catching up through :class:`~repro.core.catchup.CatchupRunner`), and
* the :class:`~repro.core.triggers.RepartitionTrigger` drift monitor.

Queries never touch the base table: they are answered entirely from node
statistics and the pooled sample (Section 4.4).

Ingestion is batched end to end: :meth:`JanusAQP.insert_many` /
:meth:`JanusAQP.delete_many` apply a whole row block under one lock with
one vectorized pass per layer, and the per-row :meth:`JanusAQP.insert` /
:meth:`JanusAQP.delete` are thin wrappers over the same path.

Queries are batched the same way: :meth:`JanusAQP.query_many` answers a
whole batch under one lock with a shared frontier traversal and one
broadcasted predicate evaluation per partial leaf, reading each leaf's
samples as one contiguous block of the pool; :meth:`JanusAQP.query` is a
thin wrapper over the same path with identical results.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..index.range_index import RangeIndex
from ..obs.logs import log_event
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, maybe_span
from ..partitioning.kdtree import KDTreePartitioner, KDTreeResult
from ..partitioning.maxvar import MaxVarOracle
from ..partitioning.onedim import OneDimPartitioner, OneDimResult
from ..partitioning.spec import PartitionNode
from ..sampling.pool import IndexReports, SamplePool
from ..sketch.counted import CountedSketch
from ..sketch.registry import (SKETCH_KIND, new_sketch, sketch_answer,
                               sketch_from_bytes)
from .catchup import CatchupReport, CatchupRunner
from .dpt import DynamicPartitionTree, inflate_rect
from .node import DPTNode
from .queries import (AggFamily, AggFunc, Query, QueryResult,
                      QueryTemplate, Rectangle)
from .table import Table
from .triggers import RepartitionTrigger, TriggerAction, TriggerConfig


@dataclass
class JanusConfig:
    """Construction knobs (Section 3.1).

    ``k`` - leaf count of the partition tree; ``sample_rate`` - pooled
    sample size as a fraction of the data (the pool targets twice that,
    the paper's 2m); ``catchup_rate`` - catch-up goal as a fraction of
    the snapshot; ``focus_agg`` - the aggregation function the
    partitioner optimizes for; ``beta``/``check_every`` - trigger
    parameters; ``auto_repartition`` - act on trigger candidates;
    ``repartition_every`` - optional periodic forcing (Figure 10).
    """

    k: int = 128
    sample_rate: float = 0.01
    catchup_rate: float = 0.10
    focus_agg: AggFunc = AggFunc.SUM
    delta: float = 0.05
    beta: float = 10.0
    check_every: int = 256
    auto_repartition: bool = True
    repartition_every: Optional[int] = None
    minmax_k: int = 32
    seed: int = 0
    min_pool: int = 128
    #: Columns maintained as sketch state (:mod:`repro.sketch`): each
    #: named attribute gets one quantile, one distinct and one heavy-
    #: hitter sketch per engine, kept in lockstep with the live rows.
    sketch_attrs: Tuple[str, ...] = ()
    sketch_height: int = 4       # quantile sample level (2^-h of values)
    hll_bits: int = 11           # HLL registers = 2^bits
    topk_capacity: int = 64      # heavy-hitter exact-answer threshold

    def __post_init__(self) -> None:
        # JSON snapshots round-trip tuples as lists; normalize so a
        # restored config compares equal to the one that was saved.
        self.sketch_attrs = tuple(self.sketch_attrs)

    @classmethod
    def from_memory_budget(cls, memory_bytes: int, n_rows: int,
                           n_attrs: int, **overrides) -> "JanusConfig":
        """Derive (m, k) from a memory constraint (Section 5.5).

        The synopsis space is ~O(m) samples plus O(k) node statistics;
        the paper observes that ``k ~ (0.5 / 100) * m`` "always gives a
        low space and efficient data structure with low error".  Given
        the budget we solve for the pooled-sample size 2m, derive k from
        the ratio, and express m as a sample rate of the current data.
        """
        if memory_bytes <= 0 or n_rows <= 0 or n_attrs <= 0:
            raise ValueError("budget, rows and attrs must be positive")
        row_bytes = 8 * n_attrs                 # one f64 sample row
        node_bytes = (6 * n_attrs + 4) * 8      # per-node statistics
        # budget = 2m * row_bytes + 2k * node_bytes with k = m / 200
        per_m = 2 * row_bytes + 2 * node_bytes / 200.0
        m = max(32, int(memory_bytes / per_m))
        k = max(2, int(round(m * 0.5 / 100)))
        sample_rate = min(0.5, m / n_rows)
        params = dict(k=k, sample_rate=sample_rate)
        params.update(overrides)
        return cls(**params)


@dataclass
class ReoptReport:
    """Timings of one re-initialization (Figure 4 / Figure 5 right)."""

    optimize_seconds: float = 0.0     # snapshot + build stages
    blocking_seconds: float = 0.0     # install stage (lock held)
    catchup: CatchupReport = field(default_factory=CatchupReport)

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time across all re-initialization phases."""
        return (self.optimize_seconds + self.blocking_seconds +
                self.catchup.total_seconds)


class JanusAQP:
    """A dynamic AQP synopsis over one query template."""

    def __init__(self, table: Table, agg_attr: str,
                 predicate_attrs: Sequence[str],
                 config: Optional[JanusConfig] = None,
                 stat_attrs: Optional[Sequence[str]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 metrics_labels: Optional[Dict[str, str]] = None) -> None:
        self.table = table
        self.agg_attr = agg_attr
        self.predicate_attrs = tuple(predicate_attrs)
        self.config = config or JanusConfig()
        self.stat_attrs = tuple(stat_attrs) if stat_attrs else table.schema
        #: Attributes with maintained sketch state.
        self.sketch_attrs = self.config.sketch_attrs
        #: What this synopsis may be asked (checked by :meth:`query_many`).
        self.template = QueryTemplate(agg_attr, self.predicate_attrs,
                                      self.stat_attrs, self.sketch_attrs)
        self._rng = np.random.default_rng(self.config.seed)
        self._pred_idx = [table.col_index(a) for a in self.predicate_attrs]
        self._agg_idx = table.col_index(agg_attr)
        self._lock = threading.RLock()

        #: Stall instrumentation (ROADMAP item 5 is gated on these
        #: series): histograms over reoptimize / lock-held reoptimize /
        #: per-batch ingest durations.  A sharded engine passes its own
        #: registry plus a ``shard`` label so every shard's stalls land
        #: on one ``/metrics`` page; standalone engines get a private
        #: registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = dict(metrics_labels or {})
        self._h_reopt = self.metrics.histogram(
            "janus_engine_reoptimize_seconds", **labels)
        self._h_reopt_blocking = self.metrics.histogram(
            "janus_engine_reopt_blocking_seconds", **labels)
        self._h_ingest_stall = self.metrics.histogram(
            "janus_engine_ingest_stall_seconds", **labels)
        self._h_repartition = self.metrics.histogram(
            "janus_engine_repartition_seconds", **labels)
        self._h_candidate_eval = {
            stage: self.metrics.histogram(
                "janus_engine_candidate_eval_seconds", stage=stage, **labels)
            for stage in ("m_r", "partition", "commit_test")}
        self._c_checks = {
            outcome: self.metrics.counter(
                "janus_engine_trigger_checks_total", outcome=outcome,
                **labels)
            for outcome in ("none", "rejected", "committed", "forced",
                            "error")}

        # Per-attribute sketch bank (repro.sketch): one sketch per kind,
        # seeded from whatever rows the table already holds and then
        # maintained in lockstep with every insert/delete below, so
        # sketch state is always canonical in the live multiset.
        self._sketches: Dict[str, Dict[int, CountedSketch]] = {}  # guarded-by: _lock
        for attr in self.config.sketch_attrs:
            if attr not in table.schema:
                raise ValueError(f"sketch attr {attr!r} not in schema")
            bank = {kind: new_sketch(
                        kind, sketch_height=self.config.sketch_height,
                        hll_bits=self.config.hll_bits,
                        topk_capacity=self.config.topk_capacity)
                    for kind in sorted(set(SKETCH_KIND.values()))}
            seed_vals = table.column(attr)
            for sketch in bank.values():
                sketch.insert_many(seed_vals)
            self._sketches[attr] = bank

        #: The pooled sample S, stored once: reservoir policy, resident
        #: rows filed by leaf, and the range index over them.
        self.pool = SamplePool(
            table, self.config.sample_rate, self.config.min_pool,
            seed=self.config.seed + 1,
            index_on=(self._pred_idx, self._agg_idx),
            index_seed=self.config.seed + 2)
        self.reservoir = self.pool.reservoir

        self.dpt: Optional[DynamicPartitionTree] = None
        #: One per engine life (its counters are lifetime counts).
        self.trigger: Optional[RepartitionTrigger] = None  # guarded-by: _lock
        self.n_repartitions = 0
        self.last_reopt: Optional[ReoptReport] = None
        #: Monotone data-version counter: bumped under the lock by every
        #: mutation that can change a query answer (ingest, delete,
        #: re-initialization, catch-up, partial re-partition).  The
        #: serving tier's result cache (:mod:`repro.service.cache`) keys
        #: entries by this value, so a bump invalidates every cached
        #: answer without any synopsis traffic.
        self.data_epoch = 0  # guarded-by: _lock

    @property
    def sample_index(self) -> RangeIndex:
        """The pool's range index (a pool redraw replaces it)."""
        return self.pool.index

    def bump_epoch(self) -> int:
        """Advance ``data_epoch`` under the engine's own lock.

        The one sanctioned way for *external* mutators to invalidate
        cached answers: a bare ``engine.data_epoch += 1`` from outside
        would race with the locked read-modify-write cycles of the
        ingest paths.  Returns the new epoch.
        """
        with self._lock:
            self.data_epoch += 1
            return self.data_epoch

    # ------------------------------------------------------------------ #
    # construction / re-initialization (Figure 4, Appendix E)
    # ------------------------------------------------------------------ #
    def initialize(self, catchup_goal: Optional[int] = None) -> ReoptReport:
        """Build the first synopsis from the current table state."""
        with self._lock:
            self.dpt = None     # void once the pool resets: a first build
            self._pool_changed(self.pool.initialize())
            return self._rebuild(catchup_goal)

    def reoptimize(self, catchup_goal: Optional[int] = None) -> ReoptReport:
        """Full re-partitioning over the current pooled sample."""
        with self._lock:
            return self._rebuild(catchup_goal)

    def reoptimize_async(self, catchup_goal: Optional[int] = None
                         ) -> threading.Thread:
        """:meth:`reoptimize` on a worker thread that does not hold the
        lock: the old synopsis keeps serving while the partitioner runs,
        only the install blocks, and catch-up yields between chunks.
        ``join()`` the returned thread, then read :attr:`last_reopt`.
        """
        thread = threading.Thread(
            target=self._rebuild, args=(catchup_goal,),
            kwargs={"frozen": True}, daemon=True, name="janus-reoptimize")
        thread.start()
        return thread

    def _rebuild(self, catchup_goal: Optional[int] = None,
                 spec: Optional[PartitionNode] = None,
                 scope: Optional[DPTNode] = None,
                 frozen: bool = False) -> ReoptReport:
        """The one re-initialization pipeline (Figure 4; Appendix E below
        ``scope``): snapshot the pool, build a partitioning from it
        (unless a committing candidate evaluation hands its ``spec``
        in), install and seed it - the blocking stage - then catch up
        from archival storage.  Each stage takes the re-entrant lock
        itself: a caller that holds it runs the pipeline as one critical
        section; the ``frozen`` caller (:meth:`reoptimize_async`) does
        not, so its build runs beside traffic and its catch-up yields
        between chunks.
        """
        t0 = time.perf_counter()
        if spec is None:
            with self._lock:
                snapshot = self._snapshot(scope, frozen)
            spec = self._partition(*snapshot).tree
        t1 = time.perf_counter()
        with self._lock:
            repartition = scope is None and self.dpt is not None
            catchup = self._install(spec, scope, catchup_goal)
            self.data_epoch += 1
        t2 = time.perf_counter()
        report = ReoptReport(t1 - t0, t2 - t1, catchup())
        with self._lock:
            self.last_reopt = report
            if repartition:
                self.n_repartitions += 1
        seconds = time.perf_counter() - t0
        if scope is None:
            self._h_reopt_blocking.observe(report.blocking_seconds)
            self._h_reopt.observe(seconds)
        else:
            self._h_repartition.observe(seconds)
        return report

    def _snapshot(self, scope: Optional[DPTNode],  # requires-lock: _lock
                  frozen: bool) -> tuple:
        """Stage 1, :meth:`_partition`'s arguments: copies of the pool
        items, leaf budget, root rectangle (the table domains, or
        ``scope``'s own), ``|D|``, and - unless the build will run
        without the lock - the live pool index."""
        coords, values, tids = self.sample_index.all_items()
        if scope is None:
            domains = [self.table.domain(a) for a in self.predicate_attrs]
            k, rect = self.config.k, Rectangle(
                tuple(lo for lo, _ in domains),
                tuple(hi for _, hi in domains))
        else:
            k, rect = self.dpt.subtree_leaf_count(scope), scope.rect
        return (coords, values, tids, k, rect, max(len(self.table), 1),
                None if frozen else self.sample_index)

    def _compute_partitioning(self) -> PartitionNode:  # requires-lock: _lock
        """Stages 1-2 over the live pool."""
        return self._partition(*self._snapshot(None, False)).tree

    def _partition(self, coords: np.ndarray, values: np.ndarray,
                   tids: np.ndarray, k: int, rect: Rectangle, n_pop: int,
                   index: Optional[RangeIndex]
                   ) -> Union[OneDimResult, KDTreeResult]:
        """Stage 2, the engine's only partitioner call: ``k`` leaves
        over the items inside ``rect``.  Reads no engine state, so a
        frozen snapshot is partitioned without the lock; the AVG oracle
        then takes its canonical cells from a throwaway index over the
        items (one vectorized ``add_many``) instead of ``index``.
        """
        if coords.shape[0] == 0:
            raise RuntimeError("cannot partition: empty sample pool")
        inside = np.flatnonzero(rect.contains_points(coords))
        if inside.size == 0:
            return KDTreeResult(PartitionNode(rect), 0.0)  # one leaf
        focus, delta = self.config.focus_agg, self.config.delta
        if len(self.predicate_attrs) == 1:
            # Canonical tid order: with duplicate keys the stable
            # by-key argsort would otherwise tie-break by pool storage
            # order, an implementation detail.
            order = inside[np.argsort(tids[inside], kind="stable")]
            return OneDimPartitioner(focus, delta=delta).partition(
                coords[order, 0], values[order], k, n_population=n_pop,
                domain=(rect.lo[0], rect.hi[0]))
        if index is None and focus is AggFunc.AVG:
            index = RangeIndex(len(self.predicate_attrs))
            index.add_many(tids, coords, values)
        return KDTreePartitioner(focus, delta=delta).partition_rows(
            coords, values, tids, k, n_population=n_pop, root_rect=rect,
            index=index)

    def _install(self, spec: PartitionNode,  # requires-lock: _lock
                 scope: Optional[DPTNode], catchup_goal: Optional[int]
                 ) -> Callable[[], CatchupReport]:
        """Stage 3, the blocking one: swap in a tree built from ``spec``
        (or ``scope``'s subtree), seed it from the pool, re-file the
        pool under its leaves, rewire the trigger.  A full rebuild then
        resamples the pool; returns the catch-up still owed (stage 4;
        none below a ``scope``).
        """
        if scope is None:
            dpt = DynamicPartitionTree(
                spec, self.table.schema, self.predicate_attrs,
                stat_attrs=self.stat_attrs, minmax_attrs=(self.agg_attr,),
                minmax_k=self.config.minmax_k)
            dpt.set_population(len(self.table))
            tids = np.asarray(self.reservoir.tids(), dtype=np.int64)
            h_equiv = 0.0
        else:
            # h_equiv (see :mod:`repro.core.repartition`): the weight
            # the fresh subtree must carry to match its ancestor.
            dpt = self.dpt
            h_equiv = (scope.count_estimate(dpt.n0, dpt.h_total) *
                       dpt.h_total / dpt.n0
                       if dpt.n0 > 0 and dpt.h_total > 0 else 0.0)
            dpt.replace_subtree(scope, spec)
            tids = self.sample_index.report(scope.rect)[2]
        # One vectorized gather: pool members are live table rows and
        # the synopsis-resident copies are verbatim.
        if tids.size:
            dpt.add_catchup_rows(self.table.rows_for(tids), scope)
        if tids.size and h_equiv > 0:
            factor = h_equiv / tids.size
            for node in dpt.subtree_nodes(scope)[1:]:
                node.h *= factor
                node.csum *= factor
                node.csumsq *= factor
        self.dpt = dpt
        if scope is not None:
            # The pool stays: re-file it under the new leaves (a full
            # install resamples it below, filing the new one - once).
            self.pool.reroute(dpt.leaf_ids_of)
        self._install_support_structures()
        catchup = CatchupReport         # nothing owed: an empty report
        if scope is None:
            self._pool_changed(self.pool.resample(dpt.leaf_ids_of))
            goal = catchup_goal if catchup_goal is not None else \
                int(self.config.catchup_rate * len(self.table))
            catchup = functools.partial(
                CatchupRunner(dpt, int(self._rng.integers(2 ** 31)))
                .run_from_table, self.table, self.table.live_tids(), goal,
                self._catchup_chunk)
        # Baselines describe the pool, which catch-up does not touch.
        self.trigger.rebase(dpt)
        return catchup

    @contextlib.contextmanager
    def _catchup_chunk(self) -> Iterator[None]:
        """One catch-up chunk's critical section, closed by the epoch
        bump its rows owe the result cache."""
        with self._lock:
            yield
            self.data_epoch += 1

    def _install_support_structures(self) -> None:  # requires-lock: _lock
        """(Re)wire the trigger for the current tree.

        Used by every (re-)initialization path and by snapshot restore
        (:mod:`repro.core.persist`).  The caller rebases the trigger
        once the pool its baselines describe is in place (a
        re-initialization resamples it after this).
        """
        oracle = MaxVarOracle(self.sample_index, self.config.focus_agg,
                              len(self.table) / max(len(self.sample_index),
                                                    1),
                              delta=self.config.delta)
        trig_cfg = TriggerConfig(
            beta=self.config.beta, check_every=self.config.check_every,
            every_n_updates=self.config.repartition_every)
        if self.trigger is None:
            self.trigger = RepartitionTrigger(trig_cfg, oracle, self.pool)
        else:
            self.trigger.config, self.trigger.oracle = trig_cfg, oracle

    def _pool_changed(self, reports: IndexReports) -> None:  # requires-lock: _lock
        """Pass what a pool call did to its index on to the trigger's
        per-leaf variance memo."""
        if self.trigger is not None:
            # a redraw (a ``None`` report) put the pool in a fresh index
            self.trigger.oracle.index = self.pool.index
            self.trigger.pool_changed(reports)

    # ------------------------------------------------------------------ #
    # request processing (Section 3.2)
    # ------------------------------------------------------------------ #
    def insert(self, values: Sequence[float]) -> int:
        """Insert a tuple: table, reservoir, and tree path all update."""
        return self.insert_many(
            np.asarray(values, dtype=np.float64)[None, :])[0]

    def insert_many(self, rows: np.ndarray) -> List[int]:
        """Bulk insert an ``(n, n_attrs)`` block under one lock.

        The whole batch flows through every layer vectorized: one
        columnar append, one batched root-to-leaf statistics pass, one
        reservoir acceptance draw, and one trigger check accounting for
        n updates.  Returns the assigned tids in row order.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size == 0:
            return []   # accept (), (0,) and (0, d) empty batches
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D (n, n_attrs) array")
        t0 = time.perf_counter()
        with self._lock:
            tids = self.table.insert_many(rows)
            self.apply_inserted(tids, rows)
        # Wait-for-lock + hold time: how long this batch stalled other
        # lock holders (queries, reoptimize phase 2).
        self._h_ingest_stall.observe(time.perf_counter() - t0)
        return tids

    def apply_inserted(self, tids: Sequence[int], rows: np.ndarray) -> None:
        """What an insert owes the synopsis once the table holds
        ``rows`` under ``tids``: tree statistics, pool, sketches, epoch,
        trigger.  Several synopses over one table
        (:class:`~repro.core.templates.SynopsisManager`) insert once
        and call this on each."""
        with self._lock:
            leaf_of = self.dpt.insert_rows(rows) if self.dpt else None
            self._pool_changed(self.pool.insert_many(tids))
            for sketch, vals in self._sketch_columns(rows):
                sketch.insert_many(vals)
            self.data_epoch += 1
            if leaf_of is not None:
                self._after_update_batch(leaf_of)

    def delete(self, tid: int) -> None:
        """Delete a live tuple by id."""
        self.delete_many((tid,))

    def delete_many(self, tids: Sequence[int]) -> None:
        """Bulk delete live tuples by id under one lock.

        Mirrors :meth:`insert_many`: one columnar table update, one
        batched tree statistics pass, one reservoir eviction sweep, one
        trigger check.  Raises ``KeyError`` (before any state changes)
        if a tid is not live or appears twice.
        """
        tids = [int(t) for t in tids]
        if not tids:
            return
        t0 = time.perf_counter()
        with self._lock:
            self.apply_deleted(tids, self.table.delete_many(tids))
        self._h_ingest_stall.observe(time.perf_counter() - t0)

    def apply_deleted(self, tids: Sequence[int], rows: np.ndarray) -> None:
        """:meth:`apply_inserted`'s mirror, the table having dropped
        ``tids`` (``rows``: the values they held)."""
        with self._lock:
            leaf_of = self.dpt.delete_rows(rows) if self.dpt else None
            self._pool_changed(self.pool.delete_many(tids))
            for sketch, vals in self._sketch_columns(rows):
                sketch.delete_many(vals)
            self.data_epoch += 1
            if leaf_of is not None:
                self._after_update_batch(leaf_of)

    def _sketch_columns(self, rows: np.ndarray  # requires-lock: _lock
                        ) -> Iterator[Tuple[CountedSketch, np.ndarray]]:
        """Every maintained sketch with its attribute's column of ``rows``."""
        for attr, bank in self._sketches.items():
            vals = rows[:, self.table.col_index(attr)]
            for sketch in bank.values():
                yield sketch, vals

    def _after_update_batch(self, leaf_of: np.ndarray) -> None:  # requires-lock: _lock
        if self.trigger is None:
            return
        uniq, counts = np.unique(leaf_of, return_counts=True)
        self._after_update([(self.dpt.leaves[int(pos)], int(c))
                            for pos, c in zip(uniq, counts)])

    def _after_update(self, leaf_counts: List[Tuple[DPTNode, int]]) -> None:  # requires-lock: _lock
        """Run the trigger over a batch's ``(leaf, row count)`` pairs."""
        n_checks = self.trigger.state.n_checks
        action = self.trigger.on_update_batch(self.dpt, leaf_counts)
        outcome = "none"
        if action is TriggerAction.FORCED:
            self.reoptimize()
            outcome = "forced"
        elif action is TriggerAction.CANDIDATE and \
                self.config.auto_repartition:
            outcome, spec = self._candidate_spec()
            if spec is not None:
                self._rebuild(spec=spec)
        elif self.trigger.state.n_checks == n_checks:
            return                       # no drift check came due
        self._c_checks[outcome].inc()

    def _candidate_spec(self) -> Tuple[str, Optional[PartitionNode]]:  # requires-lock: _lock
        """A fresh partitioning R' against the commit rule ``M(R') <
        M(R) / beta`` (Section 5.4): ``("committed", spec)``,
        ``("rejected", None)`` or, the partitioner having raised,
        ``("error", None)``.  R' is judged on the rectangles a tree
        built from it would have (only a commit builds one), worst
        bucket first and only until one leaf decides a rejection."""
        hist, t0 = self._h_candidate_eval, time.perf_counter()
        old_m = self.trigger.current_max_variance(self.dpt)
        t1 = time.perf_counter()
        hist["m_r"].observe(t1 - t0)
        snapshot = self._snapshot(None, False)
        root = snapshot[4]              # the rectangle R' partitions
        try:
            found = self._partition(*snapshot)
        except (RuntimeError, ValueError) as exc:
            log_event(None, "candidate_eval_error", error=repr(exc))
            return "error", None
        t2 = time.perf_counter()
        hist["partition"].observe(t2 - t1)
        rects = (inflate_rect(rect, root) for rect in found.leaf_rects())
        commit = self.trigger.confirm_rects(rects, old_m)
        hist["commit_test"].observe(time.perf_counter() - t2)
        return ("committed", found.tree) if commit else ("rejected", None)

    # ------------------------------------------------------------------ #
    # query processing
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> QueryResult:
        """Answer from the synopsis only (zero base-table access)."""
        return self.query_many((query,))[0]

    def query_many(self, queries: Sequence[Query],
                   obs: Optional[TraceContext] = None) -> List[QueryResult]:
        """Answer a query batch under one lock with shared passes.

        The batch shares one frontier traversal and one broadcasted
        predicate evaluation per partial leaf (see
        :meth:`~repro.core.dpt.DynamicPartitionTree.query_many`); the
        per-query estimation is a pure function of each query's own
        inputs, so results are identical to a sequential
        :meth:`query` loop, in request order.  ``obs`` (a sampled trace
        context) adds an ``engine_execute`` span covering the locked
        section; it never changes the answers.  A query off
        :attr:`template` is a ``ValueError`` for the whole batch,
        raised before anything is answered.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            self.template.check(query)
        with maybe_span(obs, "engine_execute", n_queries=len(queries)), \
                self._lock:
            # One sketch per column covers the whole live table, which
            # is all the template lets a sketch aggregate ask about.
            sketch_at = {qi: sketch_answer(
                             q, self._sketches[q.attr][SKETCH_KIND[q.agg]])
                         for qi, q in enumerate(queries)
                         if q.agg.family is AggFamily.SKETCH}
            tree_queries = [q for qi, q in enumerate(queries)
                            if qi not in sketch_at]
            tree_results: List[QueryResult] = []
            if tree_queries:
                if self.dpt is None:
                    raise RuntimeError("synopsis not initialized")
                tree_results = self.dpt.query_many(tree_queries,
                                                   self._leaf_samples)
            out: List[QueryResult] = []
            it = iter(tree_results)
            for qi in range(len(queries)):
                out.append(sketch_at[qi] if qi in sketch_at else next(it))
            return out

    def _leaf_samples(self, leaf: DPTNode) -> np.ndarray:
        return self.pool.matrix(leaf.node_id)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def pool_size(self) -> int:
        """Current pooled-sample size (the paper's ``|S|``)."""
        return len(self.reservoir)

    def restore_sketch_blobs(self, blobs: Dict[str, List[bytes]]) -> None:
        """Replace sketch state from snapshot blobs (persist restore).

        Only attributes already configured in ``sketch_attrs`` are
        restored; the blob's own kind byte routes it to the right slot.
        """
        with self._lock:
            for attr, blob_list in blobs.items():
                bank = self._sketches.get(attr)
                if bank is None:
                    continue
                for blob in blob_list:
                    sketch = sketch_from_bytes(blob)
                    bank[sketch.KIND] = sketch

    def storage_cost_bytes(self) -> int:
        """Synopsis footprint: the pooled rows (held once, in the
        pool's blocks) plus the node statistics."""
        n_schema = len(self.table.schema)
        sample_bytes = len(self.pool) * n_schema * 8
        node_bytes = 0
        if self.dpt is not None:
            per_node = (6 * len(self.dpt.stat_attrs) + 4) * 8
            node_bytes = sum(1 for _ in self.dpt.nodes()) * per_node
        return sample_bytes + node_bytes
