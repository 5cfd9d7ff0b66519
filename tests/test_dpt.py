"""Tests for the dynamic partition tree: routing, maintenance, queries."""

import math

import numpy as np
import pytest

from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import AggFunc, Query, Rectangle
from repro.partitioning.spec import TreeSpec, tree_from_intervals

SCHEMA = ("x", "a")


def make_dpt(cuts=(25.0, 50.0, 75.0), domain=(0.0, 100.0)):
    spec = tree_from_intervals(list(cuts), Rectangle((domain[0],),
                                                     (domain[1],)))
    return DynamicPartitionTree(spec, SCHEMA, ("x",))


def no_samples(leaf):
    return np.empty((0, len(SCHEMA)))


class TestConstruction:
    def test_leaves_and_k(self):
        dpt = make_dpt()
        assert dpt.k == 4
        assert len(list(dpt.nodes())) == 7        # balanced binary over 4

    def test_edges_inflated(self):
        """Boundary partitions extend to infinity for future arrivals."""
        dpt = make_dpt()
        leaf_lo = dpt.route_leaf((-1e9,))
        leaf_hi = dpt.route_leaf((1e9,))
        assert not dpt.children(leaf_lo) and not dpt.children(leaf_hi)
        assert leaf_lo is not leaf_hi

    def test_dim_mismatch_rejected(self):
        spec = tree_from_intervals([1.0], Rectangle((0.0,), (2.0,)))
        with pytest.raises(ValueError):
            DynamicPartitionTree(spec, SCHEMA, ("x", "a"))

    def test_stat_pos_unknown_attr(self):
        dpt = make_dpt()
        with pytest.raises(KeyError):
            dpt.stat_pos("nope")


class TestRouting:
    def test_routing_respects_cuts(self):
        dpt = make_dpt()
        leaves = [dpt.route_leaf((x,)) for x in (10.0, 30.0, 60.0, 90.0)]
        assert len({leaf.node_id for leaf in leaves}) == 4

    def test_boundary_points(self):
        dpt = make_dpt()
        # cut at 25: 25.0 goes left (closed), just above goes right
        left = dpt.route_leaf((25.0,))
        right = dpt.route_leaf((25.0001,))
        assert left is not right


class TestMaintenance:
    def test_insert_updates_whole_path(self):
        dpt = make_dpt()
        dpt.insert_rows(np.array([[10.0, 5.0]]))
        leaf = dpt.route_leaf((10.0,))
        assert dpt.table.delta_count[leaf.row] == 1
        assert dpt.table.delta_count[0] == 1
        assert dpt.table.dsum[0, dpt.stat_pos("a")] == 5.0

    def test_delete_reverses_insert(self):
        dpt = make_dpt()
        row = np.array([[10.0, 5.0]])
        dpt.insert_rows(row)
        dpt.delete_rows(row)
        assert dpt.table.delta_count[0] == 0
        assert dpt.table.dsum[0, dpt.stat_pos("a")] == 0.0

    def test_catchup_propagates(self):
        dpt = make_dpt()
        dpt.add_catchup_rows(np.array([[60.0, 2.0]]))
        assert dpt.h_total == 1
        leaf = dpt.route_leaf((60.0,))
        assert dpt.table.h[leaf.row] == 1

    def test_n_current(self):
        dpt = make_dpt()
        dpt.set_population(100)
        dpt.insert_rows(np.array([[1.0, 1.0], [2.0, 1.0]]))
        dpt.delete_rows(np.array([[1.0, 1.0]]))
        assert dpt.n_current == 101


class TestFrontier:
    def test_cover_and_partial(self):
        dpt = make_dpt()
        # query [0, 50] covers two leaves exactly (cuts at 25, 50)
        cover, partial = dpt.frontier(Rectangle((-math.inf,), (50.0,)))
        assert cover and not partial
        assert [dpt.node(row).rect.hi for row in cover] == [(50.0,)]

    def test_partial_leaf_detected(self):
        dpt = make_dpt()
        cover, partial = dpt.frontier(Rectangle((30.0,), (40.0,)))
        assert not cover
        assert len(partial) == 1

    def test_straddling_query(self):
        dpt = make_dpt()
        cover, partial = dpt.frontier(Rectangle((30.0,), (80.0,)))
        # middle leaves [25,50] partial at 30, [50,75] covered, partial at 80
        assert len(partial) == 2
        counts = dpt.table.count_estimates(0, 0)
        assert all(counts[row] >= 0 for row in cover)

    def test_disjoint_query(self):
        dpt = make_dpt((25.0,), domain=(0.0, 50.0))
        # after inflation the tree spans all reals, so use interior gap
        cover, partial = dpt.frontier(Rectangle((26.0,), (26.5,)))
        assert not cover and len(partial) == 1


def populate_exact(dpt, data):
    """Treat rows as both exact deltas (so stats are exact)."""
    dpt.set_population(0)
    for row in data:
        dpt.insert_rows(row[None])


class TestQueriesExactPath:
    """With delta-only statistics (exact), covered queries are exact."""

    @pytest.fixture
    def loaded(self):
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.uniform(0, 100, 500),
                                rng.lognormal(0, 1, 500)])
        dpt = make_dpt()
        populate_exact(dpt, data)
        return dpt, data

    def _truth(self, data, lo, hi, agg):
        mask = (data[:, 0] >= lo) & (data[:, 0] <= hi)
        if agg == "count":
            return mask.sum()
        if agg == "sum":
            return data[mask, 1].sum()
        return data[mask, 1].mean()

    def test_sum_covered_exact(self, loaded):
        dpt, data = loaded
        q = Query(AggFunc.SUM, "a", ("x",),
                  Rectangle((-math.inf,), (50.0,)))
        res = dpt.query(q, no_samples)
        assert res.estimate == pytest.approx(
            self._truth(data, -math.inf, 50.0, "sum"))
        assert res.variance == 0.0

    def test_count_covered_exact(self, loaded):
        dpt, data = loaded
        lo = math.nextafter(25.0, math.inf)      # exact leaf boundary
        q = Query(AggFunc.COUNT, "a", ("x",), Rectangle((lo,), (75.0,)))
        res = dpt.query(q, no_samples)
        assert res.estimate == pytest.approx(
            self._truth(data, lo, 75.0, "count"))

    def test_avg_covered_exact(self, loaded):
        dpt, data = loaded
        q = Query(AggFunc.AVG, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = dpt.query(q, no_samples)
        assert res.estimate == pytest.approx(
            self._truth(data, -math.inf, math.inf, "avg"))

    def test_minmax_covered(self, loaded):
        dpt, data = loaded
        q = Query(AggFunc.MAX, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = dpt.query(q, no_samples)
        assert res.estimate == pytest.approx(data[:, 1].max())
        q2 = q.with_agg(AggFunc.MIN)
        res2 = dpt.query(q2, no_samples)
        assert res2.estimate == pytest.approx(data[:, 1].min())

    def test_predicate_attr_mismatch_raises(self, loaded):
        dpt, _ = loaded
        q = Query(AggFunc.SUM, "a", ("a",), Rectangle((0.0,), (1.0,)))
        with pytest.raises(ValueError):
            dpt.query(q, no_samples)


class TestQueriesSampledPath:
    """Catch-up statistics + leaf samples: estimates within CI bounds."""

    @pytest.fixture
    def sampled(self):
        rng = np.random.default_rng(7)
        data = np.column_stack([rng.uniform(0, 100, 4000),
                                rng.lognormal(0, 1, 4000)])
        dpt = make_dpt(cuts=tuple(np.linspace(12.5, 87.5, 7)))
        dpt.set_population(4000)
        catchup_pick = rng.choice(4000, size=800, replace=False)
        dpt.add_catchup_rows(data[catchup_pick])
        # leaf samples: uniform pool routed by leaf
        pool = rng.choice(4000, size=400, replace=False)
        leaf_rows = {}
        for i in pool:
            leaf = dpt.route_leaf((data[i, 0],))
            leaf_rows.setdefault(leaf.node_id, []).append(data[i])
        samples = {k: np.array(v) for k, v in leaf_rows.items()}

        def leaf_samples(leaf):
            return samples.get(leaf.node_id, np.empty((0, 2)))
        return dpt, data, leaf_samples

    def test_sum_estimate_close(self, sampled):
        dpt, data, leaf_samples = sampled
        q = Query(AggFunc.SUM, "a", ("x",), Rectangle((20.0,), (70.0,)))
        res = dpt.query(q, leaf_samples)
        mask = (data[:, 0] >= 20) & (data[:, 0] <= 70)
        truth = data[mask, 1].sum()
        assert abs(res.estimate - truth) / truth < 0.25
        assert res.variance > 0
        assert res.n_partial >= 1

    def test_count_estimate_close(self, sampled):
        dpt, data, leaf_samples = sampled
        q = Query(AggFunc.COUNT, "a", ("x",), Rectangle((10.0,), (90.0,)))
        res = dpt.query(q, leaf_samples)
        mask = (data[:, 0] >= 10) & (data[:, 0] <= 90)
        truth = mask.sum()
        assert abs(res.estimate - truth) / truth < 0.2

    def test_avg_estimate_close(self, sampled):
        dpt, data, leaf_samples = sampled
        q = Query(AggFunc.AVG, "a", ("x",), Rectangle((0.0,), (100.0,)))
        res = dpt.query(q, leaf_samples)
        truth = data[:, 1].mean()
        assert abs(res.estimate - truth) / truth < 0.2

    def test_ci_sane(self, sampled):
        dpt, data, leaf_samples = sampled
        q = Query(AggFunc.SUM, "a", ("x",), Rectangle((20.0,), (70.0,)))
        res = dpt.query(q, leaf_samples)
        lo, hi = res.ci(z=3.0)
        mask = (data[:, 0] >= 20) & (data[:, 0] <= 70)
        truth = data[mask, 1].sum()
        # 3-sigma interval should usually contain the truth
        assert lo <= truth <= hi

    def test_empty_avg_nan(self, sampled):
        dpt, _, leaf_samples = sampled
        dpt2 = make_dpt()
        q = Query(AggFunc.AVG, "a", ("x",), Rectangle((40.0,), (41.0,)))
        res = dpt2.query(q, no_samples)
        assert math.isnan(res.estimate)


class TestReplaceSubtree:
    def test_spec_must_be_rooted_at_the_node(self):
        """A spec narrower (or wider) than the node is refused: rows in
        the part of the node no new leaf covers would route to the
        nearest leaf, and a COUNT over them answer 0.0 flagged exact."""
        dpt = make_dpt((50.0,))
        node = dpt.route_leaf((0.0,))               # [-inf, 50]
        for lo, hi in ((-math.inf, 10.0), (-math.inf, 100.0)):
            with pytest.raises(ValueError):
                dpt.replace_subtree(node, tree_from_intervals(
                    [5.0], Rectangle((lo,), (hi,))))
        dpt.replace_subtree(node, tree_from_intervals([5.0], node.rect))
        dpt.insert_rows(np.array([[30.0, 1.0], [40.0, 1.0]]))
        res = dpt.query(Query(AggFunc.COUNT, "a", ("x",),
                              Rectangle((20.0,), (45.0,))), no_samples)
        assert res.n_partial == 1 and not res.exact


class TestMultiDim:
    def test_2d_tree(self):
        root_rect = Rectangle((0.0, 0.0), (10.0, 10.0))
        spec = TreeSpec.of([-1, 0, 0], [root_rect,
                                        *root_rect.split(0, 5.0)])
        dpt = DynamicPartitionTree(spec, ("x", "y", "a"), ("x", "y"))
        dpt.insert_rows(np.array([[2.0, 3.0, 7.0], [8.0, 3.0, 9.0]]))
        q = Query(AggFunc.SUM, "a", ("x", "y"),
                  Rectangle((-math.inf, -math.inf), (math.inf, math.inf)))
        res = dpt.query(q, lambda leaf: np.empty((0, 3)))
        assert res.estimate == pytest.approx(16.0)
