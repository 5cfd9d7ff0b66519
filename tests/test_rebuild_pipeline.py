"""The one rebuild pipeline (``JanusAQP._rebuild``), route against route.

* Foreground against background: on quiescent seeded twins,
  ``reoptimize()`` and ``reoptimize_async().join()`` are the same
  staged body with and without the lock held, so they must leave the
  same bits - every node statistic, every rectangle, every answer and
  the catch-up row count.
* Scoped against the code it replaced: ``partial_repartition`` and
  ``_partition_region`` as they stood at f346be6 are frozen below and
  driven beside the pipeline's scoped route (the
  ``tests/test_node_table.py`` pattern).
* Scoped against readers: partial re-partitioning used to swap the
  subtree, re-seed it and re-file the pool without the engine lock.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.node import NodeTable
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.repartition import (PartialRepartitionReport, ancestor_at,
                                    partial_repartition)
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi
from repro.partitioning.kdtree import KDTreePartitioner
from repro.partitioning.onedim import OneDimPartitioner
from repro.partitioning.spec import PartitionNode

DS = nyc_taxi(n=12_000, seed=0)
N_SEED = 9000
TEMPLATES = {1: ("pickup_time",), 2: ("pickup_time", "trip_distance")}


def engine(dim, focus=AggFunc.SUM, k=32):
    """A seeded engine with some pool churn behind it."""
    table = Table(DS.schema)
    table.insert_many(DS.data[:N_SEED])
    janus = JanusAQP(table, "fare", TEMPLATES[dim], config=JanusConfig(
        k=k, sample_rate=0.03, focus_agg=focus, check_every=10 ** 9,
        seed=5))
    janus.initialize()
    tids = janus.insert_many(DS.data[N_SEED:N_SEED + 1500])
    janus.delete_many(tids[::3] + list(range(0, 1200, 4)))
    return janus


def probes(dim, n=60):
    rng = np.random.default_rng(11)
    pred = TEMPLATES[dim]
    lo_hi = [(float(DS.data[:, DS.schema.index(a)].min()),
              float(DS.data[:, DS.schema.index(a)].max())) for a in pred]
    out = [Query(agg, "fare", pred,
                 Rectangle((-math.inf,) * dim, (math.inf,) * dim))
           for agg in (AggFunc.COUNT, AggFunc.SUM)]
    for i in range(n):
        lo = [rng.uniform(a, b) for a, b in lo_hi]
        hi = [x + rng.uniform(0.05, 0.6) * (b - a)
              for x, (a, b) in zip(lo, lo_hi)]
        agg = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)[i % 3]
        out.append(Query(agg, "fare", pred,
                         Rectangle(tuple(lo), tuple(hi))))
    return out


def assert_same_synopsis(a, b, dim):
    """Tree shape, every statistics column, strata routes, answers."""
    assert [n.rect for n in a.dpt.nodes()] == \
        [n.rect for n in b.dpt.nodes()]
    assert [n.node_id for n in a.dpt.leaves] == \
        [n.node_id for n in b.dpt.leaves]
    for name in NodeTable.FIELDS:
        assert np.array_equal(getattr(a.dpt._table, name),
                              getattr(b.dpt._table, name)), name
    assert a.dpt.n0 == b.dpt.n0
    assert [a.pool.tids(n.node_id) for n in a.dpt.leaves] == \
        [b.pool.tids(n.node_id) for n in b.dpt.leaves]
    for ra, rb in zip(a.query_many(probes(dim)), b.query_many(probes(dim))):
        assert (ra.estimate, ra.variance_catchup, ra.variance_sample,
                ra.exact, ra.n_covered, ra.n_partial) == \
               (rb.estimate, rb.variance_catchup, rb.variance_sample,
                rb.exact, rb.n_covered, rb.n_partial)


# ---------------------------------------------------------------------- #
# foreground vs background
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("focus", [AggFunc.SUM, AggFunc.AVG])
def test_quiescent_twins_sync_equals_async(dim, focus):
    a, b = engine(dim, focus), engine(dim, focus)
    first_build = b.last_reopt
    report = a.reoptimize()
    thread = b.reoptimize_async()
    thread.join(timeout=120)
    assert not thread.is_alive()

    assert_same_synopsis(a, b, dim)
    assert a.n_repartitions == b.n_repartitions == 1
    assert a.last_reopt is report
    assert b.last_reopt is not first_build      # every route reports
    assert b.last_reopt.catchup.goal == report.catchup.goal
    assert b.last_reopt.catchup.n_processed == \
        report.catchup.n_processed > 0
    assert b.last_reopt.optimize_seconds > 0
    assert b.last_reopt.blocking_seconds > 0


def test_async_catchup_goal_is_honoured():
    a, b = engine(1), engine(1)
    a.reoptimize(catchup_goal=300)
    thread = b.reoptimize_async(catchup_goal=300)
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert b.last_reopt.catchup.n_processed == 300
    assert_same_synopsis(a, b, 1)


def test_only_rebuilds_after_the_first_count():
    janus = engine(1)
    assert janus.n_repartitions == 0
    janus.initialize()                  # a first build again
    assert janus.n_repartitions == 0
    janus.reoptimize()
    partial_repartition(janus, janus.dpt.leaves[4], psi=2)   # scoped
    assert janus.n_repartitions == 1
    partial_repartition(janus, janus.dpt.leaves[4], psi=99)  # the root
    assert janus.n_repartitions == 2


# ---------------------------------------------------------------------- #
# scoped route vs partial_repartition frozen at f346be6
# ---------------------------------------------------------------------- #
def frozen_partition_region(janus, rect, k):
    d = len(janus.predicate_attrs)
    coords, values, tids = janus.sample_index.report(rect)
    if coords.shape[0] == 0:
        return PartitionNode(rect)
    if d == 1:
        lo = rect.lo[0]
        hi = rect.hi[0]
        order = np.argsort(tids, kind="stable")
        result = OneDimPartitioner(
            janus.config.focus_agg, delta=janus.config.delta).partition(
                coords[order, 0], values[order], k,
                n_population=max(len(janus.table), 1),
                domain=(lo, hi))
        return result.tree
    result = KDTreePartitioner(
        janus.config.focus_agg, delta=janus.config.delta).partition(
            janus.sample_index, k, n_population=max(len(janus.table), 1),
            root_rect=rect)
    return result.tree


def frozen_partial_repartition(janus, leaf, psi=2):
    t0 = time.perf_counter()
    dpt = janus.dpt
    u = ancestor_at(leaf, psi)
    if u is dpt.root:
        janus.reoptimize()
        return PartialRepartitionReport(dpt.root.node_id, janus.dpt.k, 0,
                                        time.perf_counter() - t0)
    l_u = dpt.subtree_leaf_count(u)
    spec = frozen_partition_region(janus, u.rect, l_u)
    h_total = dpt.h_total
    n0 = dpt.n0
    if n0 > 0 and h_total > 0:
        h_equiv = u.count_estimate(n0, h_total) * h_total / n0
    else:
        h_equiv = 0.0
    dpt.replace_subtree(u, spec)
    _, _, tids = janus.sample_index.report(u.rect)
    n_seed = int(tids.shape[0])
    if n_seed:
        dpt.add_catchup_rows_subtree(u, janus.table.rows_for(tids))
    if n_seed > 0 and h_equiv > 0:
        factor = h_equiv / n_seed
        stack = list(u.children)
        while stack:
            node = stack.pop()
            node.h *= factor
            node.csum *= factor
            node.csumsq *= factor
            stack.extend(node.children)
    janus.pool.reroute(dpt.leaf_ids_of)
    if janus.trigger is not None:
        janus.trigger.rebase(dpt)
    janus.bump_epoch()
    return PartialRepartitionReport(u.node_id, l_u, n_seed,
                                    time.perf_counter() - t0)


@pytest.mark.parametrize("dim", [1, 2])
def test_scoped_route_matches_frozen_partial_repartition(dim):
    old, new = engine(dim), engine(dim)
    assert_same_synopsis(old, new, dim)
    for step, psi in enumerate((1, 2, 3, 2, 99)):
        at = (7 * step + 3) % old.dpt.k
        epoch = new.data_epoch
        was = frozen_partial_repartition(old, old.dpt.leaves[at], psi)
        now = partial_repartition(new, new.dpt.leaves[at], psi)
        assert (was.subtree_root_id, was.n_leaves) == \
            (now.subtree_root_id, now.n_leaves)
        if psi < 99:
            assert was.n_seed_samples == now.n_seed_samples
        assert new.data_epoch > epoch
        assert_same_synopsis(old, new, dim)
        # and the trees keep agreeing under the writes that follow
        rows = DS.data[10_600 + 200 * step:10_800 + 200 * step]
        old.insert_many(rows)
        new.insert_many(rows)
    assert_same_synopsis(old, new, dim)
    assert old.n_repartitions == new.n_repartitions == 1


# ---------------------------------------------------------------------- #
# scoped route vs concurrent readers
# ---------------------------------------------------------------------- #
def test_partial_repartition_waits_for_the_engine_lock():
    """While a reader holds the lock the tree must not move under it."""
    janus = engine(1)
    rects = [n.rect for n in janus.dpt.nodes()]
    held, release, done = (threading.Event() for _ in range(3))

    def reader():
        with janus._lock:
            held.set()
            release.wait(timeout=60)

    def writer():
        partial_repartition(janus, janus.dpt.leaves[9], psi=3)
        done.set()

    threads = [threading.Thread(target=reader),
               threading.Thread(target=writer)]
    threads[0].start()
    assert held.wait(timeout=60)
    threads[1].start()
    try:
        assert not done.wait(timeout=0.3)
        assert [n.rect for n in janus.dpt.nodes()] == rects
    finally:
        release.set()
        for t in threads:
            t.join(timeout=60)
    assert done.is_set() and not any(t.is_alive() for t in threads)
    assert [n.rect for n in janus.dpt.nodes()] != rects


def test_queries_race_partial_repartitions():
    janus = engine(1)
    n_live = len(janus.table)
    queries = probes(1, n=12)
    stop = threading.Event()
    counts, errors = [], []

    def reader():
        try:
            while not stop.is_set():
                counts.append(janus.query_many(queries)[0].estimate)
        except Exception as exc:        # pragma: no cover - the failure
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(3)]
    try:
        for t in readers:
            t.start()
        for step in range(20):
            leaf = janus.dpt.leaves[(5 * step) % janus.dpt.k]
            partial_repartition(janus, leaf, psi=1 + step % 3)
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    assert counts and set(counts) == {float(n_live)}
