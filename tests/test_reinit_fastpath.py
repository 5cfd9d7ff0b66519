"""Equivalence suite for the vectorized re-initialization fast path.

Pins the array-backed :class:`RangeIndex`, the row-based
:class:`MaxVarOracle` entry points and the flat-matrix
:class:`KDTreePartitioner` build against the frozen pure-Python
reference (:class:`PyRangeIndex` + :class:`ReferenceKDTreePartitioner`)
across dimensions 1-3, duplicates-heavy keys and delete-heavy pools:
identical ``report``/``count`` results, matching ``range_stats`` and
``max_variance``, identical partition trees (same cuts, same leaf
rectangles) and unchanged post-reoptimize query answers.
"""

import numpy as np
import pytest

from repro.core.catchup import seed_from_reservoir
from repro.core.dpt import DynamicPartitionTree
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.index.range_index import RangeIndex
from repro.index.reference import PyRangeIndex
from repro.partitioning.dp import DPPartitioner
from repro.partitioning.kdtree import (KDTreePartitioner,
                                       ReferenceKDTreePartitioner)
from repro.partitioning.maxvar import MaxVarOracle, PrefixStats
from repro.partitioning.onedim import OneDimPartitioner


def make_pool(dim, n, seed, duplicates=False, delete_frac=0.0):
    """Identical insert/delete sequences applied to both index classes."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n, dim))
    if duplicates:
        pts = np.round(pts, 0)       # heavy coordinate collisions
    vals = rng.lognormal(0.5, 1.0, n)
    new = RangeIndex(dim, seed=1)
    old = PyRangeIndex(dim, seed=1)
    for tid in range(n):
        new.insert(tid, pts[tid], vals[tid])
        old.insert(tid, pts[tid], vals[tid])
    if delete_frac:
        doomed = rng.choice(n, size=int(delete_frac * n), replace=False)
        # exercise both the bulk and the per-tid delete paths
        cut = doomed.size // 2
        new.delete_many(doomed[:cut])
        old.delete_many(doomed[:cut])
        for tid in doomed[cut:]:
            new.delete(int(tid))
            old.delete(int(tid))
    return new, old, pts, vals


def random_rects(dim, seed, n=20):
    rng = np.random.default_rng(seed)
    rects = [Rectangle((0.0,) * dim, (100.0,) * dim)]
    for _ in range(n):
        lo = rng.uniform(0, 80, dim)
        hi = lo + rng.uniform(2, 45, dim)
        rects.append(Rectangle(tuple(lo), tuple(hi)))
    return rects


def tree_signature(node):
    """(rect, children) nesting - equal iff same cuts and leaf rects."""
    if not node.children:
        return ("leaf", tuple(node.rect.lo), tuple(node.rect.hi))
    return (tuple(node.rect.lo), tuple(node.rect.hi),
            tuple(tree_signature(c) for c in node.children))


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
        new, old, _, _ = make_pool(n=900, seed=11, **pool)
        assert len(new) == len(old)
        for rect in random_rects(pool["dim"], seed=5):
            assert new.count(rect) == old.count(rect)
            cn, sn, s2n = new.range_stats(rect)
            co, so, s2o = old.range_stats(rect)
            assert cn == co
            assert sn == pytest.approx(so, rel=1e-9, abs=1e-9)
            assert s2n == pytest.approx(s2o, rel=1e-9, abs=1e-9)
            _, _, tids_n = new.report(rect)
            _, _, tids_o = old.report(rect)
            assert sorted(tids_n.tolist()) == sorted(tids_o.tolist())

    def test_small_cells_identical_structure(self, pool):
        """Same update sequence => identical k-d skeletons and cells."""
        new, old, _, _ = make_pool(n=900, seed=11, **pool)
        for rect in random_rects(pool["dim"], seed=6, n=6):
            cells_n = list(new.small_cells(rect, 40))
            cells_o = list(old.small_cells(rect, 40))
            assert len(cells_n) == len(cells_o)
            for (rn, cn, sn, s2n), (ro, co, so, s2o) in zip(cells_n,
                                                            cells_o):
                assert tuple(map(float, rn.lo)) == tuple(map(float, ro.lo))
                assert tuple(map(float, rn.hi)) == tuple(map(float, ro.hi))
                assert cn == co
                assert sn == pytest.approx(so, rel=1e-9, abs=1e-9)
                assert s2n == pytest.approx(s2o, rel=1e-9, abs=1e-9)

    def test_max_variance_equivalent(self, pool):
        new, old, _, _ = make_pool(n=900, seed=11, **pool)
        n_pop = 20 * len(new)
        for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
            oracle_n = MaxVarOracle(new, agg, n_pop / max(len(new), 1))
            oracle_o = MaxVarOracle(old, agg, n_pop / max(len(old), 1))
            for rect in random_rects(pool["dim"], seed=7, n=8):
                rn = oracle_n.max_variance(rect)
                ro = oracle_o.max_variance(rect)
                assert rn.variance == pytest.approx(ro.variance,
                                                    rel=1e-9, abs=1e-12)
                if agg in (AggFunc.SUM, AggFunc.COUNT):
                    # canonical tid ordering makes these bit-identical
                    assert rn.variance == ro.variance
                    assert tuple(rn.witness.lo) == tuple(ro.witness.lo)
                    assert tuple(rn.witness.hi) == tuple(ro.witness.hi)

    def test_bulk_build_matches_point_queries(self, pool):
        """add_many (wholesale rebuild) answers like the per-insert build."""
        new, _, pts, vals = make_pool(n=900, seed=11, **pool)
        coords, values, tids = new.all_items()
        bulk = RangeIndex(pool["dim"], seed=1)
        bulk.add_many(tids, coords, values)
        assert len(bulk) == len(new)
        for rect in random_rects(pool["dim"], seed=8, n=10):
            assert bulk.count(rect) == new.count(rect)
            cn, sn, s2n = bulk.range_stats(rect)
            co, so, s2o = new.range_stats(rect)
            assert cn == co
            assert sn == pytest.approx(so, rel=1e-9, abs=1e-9)
            _, _, tids_b = bulk.report(rect)
            _, _, tids_n = new.report(rect)
            assert sorted(tids_b.tolist()) == sorted(tids_n.tolist())


@pytest.mark.parametrize("pool", [p for p in POOLS if p["dim"] > 1],
                         ids=lambda p: f"d{p['dim']}"
                         f"{'-dup' if p['duplicates'] else ''}"
                         f"{'-del' if p['delete_frac'] else ''}")
@pytest.mark.parametrize("agg", [AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG])
class TestPartitionerEquivalence:
    def test_identical_trees(self, pool, agg):
        new, old, _, _ = make_pool(n=1200, seed=23, **pool)
        rect = Rectangle((0.0,) * pool["dim"], (100.0,) * pool["dim"])
        fast = KDTreePartitioner(agg).partition(
            new, 48, n_population=20 * len(new), root_rect=rect)
        ref = ReferenceKDTreePartitioner(agg).partition(
            old, 48, n_population=20 * len(old), root_rect=rect)
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


class TestDPAvgVectorized:
    def test_cost_row_bit_identical_to_scalar_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0, 1, 150)
        prefix = PrefixStats(values)
        for window in (4, 9, 60, 149, 500):
            for i in (1, 2, 7, 83, 150):
                new = DPPartitioner._avg_cost_row(prefix.p1, prefix.p2,
                                                  i, window)
                old = np.array([prefix.max_var_avg(int(lo), i, window)
                                for lo in range(i)])
                assert np.array_equal(new, old)

    def test_dp_avg_partition_unchanged(self):
        rng = np.random.default_rng(9)
        keys = np.sort(rng.uniform(0, 10, 120))
        vals = rng.lognormal(0, 1, 120)
        res = DPPartitioner(AggFunc.AVG).partition(keys, vals, 8,
                                                   n_population=1200)
        assert len(res.boundaries) <= 7
        assert res.max_error >= 0.0


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
    """Old-path vs fast-path over one frozen pool: identical trees and
    identical post-reoptimize query answers."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_spec_and_answers_unchanged(self, dim):
        janus = _build_janus(dim, n_rows=3000, seed=1)
        coords, values, tids = janus.sample_index.all_items()
        n_pop = len(janus.table)
        lo = tuple(janus.table.domain(a)[0] for a in janus.predicate_attrs)
        hi = tuple(janus.table.domain(a)[1] for a in janus.predicate_attrs)
        rect = Rectangle(lo, hi)

        # Old path: per-insert PyRangeIndex + report-per-split build.
        old_index = PyRangeIndex(dim, seed=janus.config.seed + 3)
        order = np.argsort(tids, kind="stable")
        for i in order:
            old_index.insert(int(tids[i]), coords[i], float(values[i]))
        spec_old = ReferenceKDTreePartitioner(
            janus.config.focus_agg, delta=janus.config.delta).partition(
                old_index, janus.config.k, n_population=n_pop,
                root_rect=rect).tree
        # Fast path: exactly what _reinitialize computes.
        spec_new = janus._compute_partitioning()
        assert tree_signature(spec_old) == tree_signature(spec_new)

        # Seeding: old per-row generator vs one vectorized table gather.
        pool_tids = np.asarray(janus.reservoir.tids(), dtype=np.int64)
        rows = janus.table.rows_for(pool_tids)
        schema = janus.table.schema
        pred = janus.predicate_attrs
        dpt_old = DynamicPartitionTree(spec_old, schema, pred)
        dpt_old.set_population(n_pop)
        seed_from_reservoir(dpt_old, (r for r in rows))   # legacy path
        dpt_new = DynamicPartitionTree(spec_new, schema, pred)
        dpt_new.set_population(n_pop)
        seed_from_reservoir(dpt_new, rows)                # matrix path

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
