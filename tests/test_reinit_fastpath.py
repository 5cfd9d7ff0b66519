"""Equivalence suite for the vectorized re-initialization fast path.

Pins the array-backed :class:`RangeIndex` against brute force and
against itself: two indexes that load one live point set in different
orders and batches yield bit-identical canonical cells and oracle
values.  The flat-matrix
:class:`KDTreePartitioner` build is pinned against the report-per-split
reference (``benchmarks/lib/reference.py``) over the same index, across
dimensions 1-3, duplicates-heavy keys and delete-heavy pools: identical
partition trees (same cuts, same leaf rectangles) and unchanged
post-reoptimize query answers.
"""

import os
import sys

import numpy as np
import pytest

from repro.core.dpt import DynamicPartitionTree
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.index.range_index import RangeIndex
from repro.partitioning.kdtree import KDTreePartitioner
from repro.partitioning.maxvar import MaxVarOracle
from repro.partitioning.onedim import OneDimPartitioner

# the paper-figure benchmarks' library (benchmarks/lib) imports as ``lib``
sys.path.insert(0, os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks")))

from lib.reference import ReferenceKDTreePartitioner  # noqa: E402


def make_pool(dim, n, seed, duplicates=False, delete_frac=0.0):
    """An index over the points left live after deletes, with all the
    points and the liveness of every tid."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n, dim))
    if duplicates:
        pts = np.round(pts, 0)       # heavy coordinate collisions
    vals = rng.lognormal(0.5, 1.0, n)
    live = np.ones(n, dtype=bool)
    if delete_frac:
        live[rng.choice(n, size=int(delete_frac * n), replace=False)] = \
            False
    index = RangeIndex(dim)
    index.add_many(np.flatnonzero(live), pts[live], vals[live])
    return index, pts, vals, live


def churned_twin(pts, vals, live, seed):
    """The live set of :func:`make_pool` loaded another way: shuffled,
    in five batches, with ``small_cells`` asked between them so a stale
    cached tree would show."""
    rng = np.random.default_rng(seed)
    dim = pts.shape[1]
    twin = RangeIndex(dim)
    everything = Rectangle((-1.0,) * dim, (101.0,) * dim)
    for chunk in np.array_split(rng.permutation(np.flatnonzero(live)), 5):
        twin.add_many(chunk, pts[chunk], vals[chunk])
        list(twin.small_cells(everything, 40))
    return twin


def random_rects(dim, seed, n=20):
    rng = np.random.default_rng(seed)
    rects = [Rectangle((0.0,) * dim, (100.0,) * dim)]
    for _ in range(n):
        lo = rng.uniform(0, 80, dim)
        hi = lo + rng.uniform(2, 45, dim)
        rects.append(Rectangle(tuple(lo), tuple(hi)))
    return rects


def tree_signature(spec):
    """Preorder (rect, fan-out) - equal iff same cuts and leaf rects."""
    return [(node.rect, len(node.children)) for node in spec.walk()]


POOLS = [
    dict(dim=1, duplicates=False, delete_frac=0.0),
    dict(dim=1, duplicates=True, delete_frac=0.4),
    dict(dim=2, duplicates=False, delete_frac=0.0),
    dict(dim=2, duplicates=True, delete_frac=0.0),
    dict(dim=2, duplicates=False, delete_frac=0.4),
    dict(dim=3, duplicates=True, delete_frac=0.4),
]


@pytest.mark.parametrize("pool", POOLS,
                         ids=lambda p: f"d{p['dim']}"
                         f"{'-dup' if p['duplicates'] else ''}"
                         f"{'-del' if p['delete_frac'] else ''}")
class TestIndexEquivalence:
    def test_counts_reports_stats(self, pool):
        index, pts, vals, live = make_pool(n=900, seed=11, **pool)
        assert len(index) == int(live.sum())
        for rect in random_rects(pool["dim"], seed=5):
            want = np.flatnonzero(rect.contains_points(pts) & live)
            assert index.count(rect) == want.size
            coords, values, tids = index.report(rect)
            order = np.argsort(tids)
            assert np.array_equal(tids[order], want)
            assert np.array_equal(coords[order], pts[want])
            assert np.array_equal(values[order], vals[want])

    def test_small_cells_identical_structure(self, pool):
        """One live set => bit-identical cells, whatever the history."""
        index, pts, vals, live = make_pool(n=900, seed=11, **pool)
        twin = churned_twin(pts, vals, live, seed=3)
        for rect in random_rects(pool["dim"], seed=6, n=6):
            cells = list(index.small_cells(rect, 40))
            assert cells == list(twin.small_cells(rect, 40))
            for cell, count in cells:
                assert rect.contains_rect(cell)
                assert count == int(
                    (cell.contains_points(pts) & live).sum())
        full = Rectangle((0.0,) * pool["dim"], (100.0,) * pool["dim"])
        assert sum(c for _, c in index.small_cells(full, 40)) == len(index)

    def test_max_variance_equivalent(self, pool):
        """One live set => bit-identical M(R) and witness for all three
        oracles, whatever the history."""
        index, pts, vals, live = make_pool(n=900, seed=11, **pool)
        twin = churned_twin(pts, vals, live, seed=4)
        n_pop = 20 * len(index)
        for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
            oracle = MaxVarOracle(index, agg, n_pop / len(index))
            oracle_t = MaxVarOracle(twin, agg, n_pop / len(twin))
            for rect in random_rects(pool["dim"], seed=7, n=8):
                got, want = oracle_t.max_variance(rect), \
                    oracle.max_variance(rect)
                assert got.variance == want.variance
                assert got.witness == want.witness

    def test_bulk_build_matches_point_queries(self, pool):
        """An index over arrays answers like the add_many build."""
        index, _, _, _ = make_pool(n=900, seed=11, **pool)
        bulk = RangeIndex.of(*(a.copy() for a in index.all_items()))
        assert len(bulk) == len(index)
        for rect in random_rects(pool["dim"], seed=8, n=10):
            assert bulk.count(rect) == index.count(rect)
            _, vals_b, tids_b = bulk.report(rect)
            _, vals_n, tids_n = index.report(rect)
            assert np.array_equal(tids_b, tids_n)
            assert np.array_equal(vals_b, vals_n)


@pytest.mark.parametrize("pool", [p for p in POOLS if p["dim"] > 1],
                         ids=lambda p: f"d{p['dim']}"
                         f"{'-dup' if p['duplicates'] else ''}"
                         f"{'-del' if p['delete_frac'] else ''}")
@pytest.mark.parametrize("agg", [AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG])
class TestPartitionerEquivalence:
    def test_identical_trees(self, pool, agg):
        index, _, _, _ = make_pool(n=1200, seed=23, **pool)
        rect = Rectangle((0.0,) * pool["dim"], (100.0,) * pool["dim"])
        fast = KDTreePartitioner(agg).partition(
            index, 48, n_population=20 * len(index), root_rect=rect)
        ref = ReferenceKDTreePartitioner(agg).partition(
            index, 48, n_population=20 * len(index), root_rect=rect)
        assert tree_signature(fast.tree) == tree_signature(ref.tree)
        assert fast.max_error == pytest.approx(ref.max_error, rel=1e-9,
                                               abs=1e-12)


class TestOneDimCanonical:
    def test_identical_cuts_any_storage_order(self):
        """Tid-sorted input makes 1-D cuts independent of pool order."""
        rng = np.random.default_rng(4)
        n = 800
        keys = np.round(rng.uniform(0, 50, n), 0)   # duplicate-heavy
        vals = rng.lognormal(0, 1, n)
        tids = np.arange(n)
        perm = rng.permutation(n)                    # a shuffled pool
        order_a = np.argsort(tids, kind="stable")
        order_b = np.argsort(tids[perm], kind="stable")
        part = OneDimPartitioner(AggFunc.SUM)
        res_a = part.partition(keys[order_a], vals[order_a], 32,
                               n_population=10 * n, domain=(0.0, 50.0))
        res_b = part.partition(keys[perm][order_b], vals[perm][order_b],
                               32, n_population=10 * n,
                               domain=(0.0, 50.0))
        assert res_a.boundaries == res_b.boundaries
        assert res_a.max_error == res_b.max_error


def _build_janus(dim, n_rows, seed=0, k=32):
    rng = np.random.default_rng(seed)
    schema = ["a"] + [f"p{j}" for j in range(dim)]
    data = np.column_stack([rng.lognormal(1, 1, n_rows),
                            *(rng.uniform(0, 100, n_rows)
                              for _ in range(dim))])
    table = Table(schema, capacity=n_rows + 16)
    table.insert_many(data)
    cfg = JanusConfig(k=k, sample_rate=0.05, catchup_rate=0.05,
                      check_every=10 ** 9, seed=seed)
    janus = JanusAQP(table, "a", [f"p{j}" for j in range(dim)],
                     config=cfg)
    janus.initialize()
    return janus


class TestReoptimizePipeline:
    """Reference vs fast partitioner over one pool: identical trees and
    identical post-reoptimize query answers."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_spec_and_answers_unchanged(self, dim):
        janus = _build_janus(dim, n_rows=3000, seed=1)
        n_pop = len(janus.table)
        lo = tuple(janus.table.domain(a)[0] for a in janus.predicate_attrs)
        hi = tuple(janus.table.domain(a)[1] for a in janus.predicate_attrs)
        rect = Rectangle(lo, hi)

        # Reference: the report-per-split build over the pool index.
        spec_old = ReferenceKDTreePartitioner(
            janus.config.focus_agg, delta=janus.config.delta).partition(
                janus.sample_index, janus.config.k, n_population=n_pop,
                root_rect=rect).tree
        # Fast path: exactly what _reinitialize computes.
        spec_new = janus._compute_partitioning()
        assert tree_signature(spec_old) == tree_signature(spec_new)

        # Seeding: one vectorized table gather into either tree.
        pool_tids = np.asarray(janus.reservoir.tids(), dtype=np.int64)
        rows = janus.table.rows_for(pool_tids)
        schema = janus.table.schema
        pred = janus.predicate_attrs
        dpt_old = DynamicPartitionTree(spec_old, schema, pred)
        dpt_old.set_population(n_pop)
        dpt_old.add_catchup_rows(rows)
        dpt_new = DynamicPartitionTree(spec_new, schema, pred)
        dpt_new.set_population(n_pop)
        dpt_new.add_catchup_rows(rows)

        def leaf_samples_for(dpt):
            leaf_of = dpt.route_rows(rows[:, janus._pred_idx])
            blocks = {}
            for pos in np.unique(leaf_of):
                node = dpt.leaves[int(pos)]
                blocks[node.node_id] = rows[leaf_of == pos]
            empty = np.empty((0, len(schema)))
            return lambda leaf: blocks.get(leaf.node_id, empty)

        ls_old = leaf_samples_for(dpt_old)
        ls_new = leaf_samples_for(dpt_new)
        rng = np.random.default_rng(5)
        for _ in range(25):
            qlo = rng.uniform(0, 70, dim)
            qhi = qlo + rng.uniform(5, 30, dim)
            for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
                q = Query(agg, "a", tuple(pred),
                          Rectangle(tuple(qlo), tuple(qhi)))
                res_old = dpt_old.query(q, ls_old)
                res_new = dpt_new.query(q, ls_new)
                assert res_new.estimate == pytest.approx(
                    res_old.estimate, rel=1e-9, abs=1e-9)

    def test_full_reoptimize_deterministic(self):
        """Two identical systems reoptimize to identical answers."""
        a = _build_janus(2, n_rows=2500, seed=3)
        b = _build_janus(2, n_rows=2500, seed=3)
        a.reoptimize()
        b.reoptimize()
        rng = np.random.default_rng(8)
        queries = []
        for _ in range(30):
            qlo = rng.uniform(0, 70, 2)
            qhi = qlo + rng.uniform(5, 30, 2)
            queries.append(Query(AggFunc.SUM, "a", ("p0", "p1"),
                                 Rectangle(tuple(qlo), tuple(qhi))))
        res_a = a.query_many(queries)
        res_b = b.query_many(queries)
        for ra, rb in zip(res_a, res_b):
            assert ra.estimate == rb.estimate


class TestTableLiveMask:
    def test_matches_contains(self):
        table = Table(["x", "y"])
        tids = table.insert_many(np.arange(20.0).reshape(10, 2))
        table.delete_many(tids[::3])
        probe = np.array(tids + [99, -1, 1000], dtype=np.int64)
        mask = table.live_mask(probe)
        assert mask.tolist() == [int(t) in table for t in probe]

    def test_rows_for_vectorized_gather(self):
        table = Table(["x", "y"])
        tids = table.insert_many(np.arange(20.0).reshape(10, 2))
        got = table.rows_for(np.asarray(tids[::2], dtype=np.int64))
        assert np.array_equal(got, np.arange(20.0).reshape(10, 2)[::2])
        with pytest.raises(KeyError):
            table.rows_for([tids[0], 12345])
