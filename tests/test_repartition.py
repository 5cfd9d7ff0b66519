"""Tests for partial re-partitioning (Appendix E)."""

import math

import numpy as np
import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.repartition import (ancestor_at, auto_partial_repartition,
                                    partial_repartition)
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi


@pytest.fixture
def world():
    ds = nyc_taxi(n=20_000, seed=0)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:16_000])
    cfg = JanusConfig(k=32, sample_rate=0.03, catchup_rate=0.10,
                      check_every=10 ** 9, seed=0)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    return janus, table, ds


class TestAncestorAt:
    def test_walks_up(self, world):
        janus, _, _ = world
        dpt = janus.dpt
        leaf = dpt.leaves[0]
        assert ancestor_at(dpt, leaf, 0) is leaf
        assert ancestor_at(dpt, leaf, 1) == dpt.parent(leaf)
        assert ancestor_at(dpt, leaf, 100) == dpt.node(0)


class TestPartialRepartition:
    def test_preserves_leaf_budget(self, world):
        janus, _, _ = world
        k_before = janus.dpt.k
        leaf = janus.dpt.leaves[len(janus.dpt.leaves) // 2]
        u = ancestor_at(janus.dpt, leaf, 2)
        l_u = len(janus.dpt.subtree_leaves(u))
        report = partial_repartition(janus, leaf, psi=2)
        assert report.n_leaves == l_u
        assert janus.dpt.k == k_before

    def test_tree_invariants_hold(self, world):
        janus, _, _ = world
        leaf = janus.dpt.leaves[3]
        partial_repartition(janus, leaf, psi=2)
        # every node's children partition it: disjoint siblings
        for node in janus.dpt.nodes():
            children = janus.dpt.children(node)
            for i, a in enumerate(children):
                assert node.rect.contains_rect(a.rect)
                for b in children[i + 1:]:
                    assert not a.rect.intersects(b.rect)

    def test_node_registry_consistent(self, world):
        janus, _, _ = world
        leaf = janus.dpt.leaves[3]
        partial_repartition(janus, leaf, psi=2)
        ids = [n.node_id for n in janus.dpt.nodes()]
        assert len(ids) == len(set(ids))
        assert not any(janus.dpt.children(leaf) for leaf in janus.dpt.leaves)

    def test_outside_estimates_unchanged(self, world):
        """Nodes outside the subtree keep their exact statistics."""
        janus, table, ds = world
        leaf = janus.dpt.leaves[0]
        u = ancestor_at(janus.dpt, leaf, 2)
        # a query region far from the re-partitioned subtree
        far_lo = u.rect.hi[0] if math.isfinite(u.rect.hi[0]) else 0.0
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((far_lo + 100.0,), (math.inf,)))
        before = janus.query(q).estimate
        partial_repartition(janus, leaf, psi=2)
        after = janus.query(q).estimate
        assert after == pytest.approx(before, rel=0.02)

    def test_subtree_estimates_consistent(self, world):
        """Queries over the re-partitioned region stay close to truth."""
        janus, table, ds = world
        leaf = janus.dpt.leaves[len(janus.dpt.leaves) // 2]
        u = ancestor_at(janus.dpt, leaf, 3)
        rect = u.rect
        lo = rect.lo[0] if math.isfinite(rect.lo[0]) else \
            table.domain(ds.predicate_attrs[0])[0]
        hi = rect.hi[0] if math.isfinite(rect.hi[0]) else \
            table.domain(ds.predicate_attrs[0])[1]
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((lo,), (hi,)))
        truth = table.ground_truth(q)
        partial_repartition(janus, leaf, psi=3)
        est = janus.query(q).estimate
        assert abs(est - truth) / abs(truth) < 0.2

    def test_updates_after_repartition(self, world):
        janus, table, ds = world
        leaf = janus.dpt.leaves[5]
        partial_repartition(janus, leaf, psi=2)
        q = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        before = janus.query(q).estimate
        for row in ds.data[16_000:16_500]:
            janus.insert(row)
        after = janus.query(q).estimate
        assert after == pytest.approx(before + 500, rel=0.01)

    def test_root_degenerates_to_full(self, world):
        janus, _, _ = world
        leaf = janus.dpt.leaves[0]
        n_before = janus.n_repartitions
        partial_repartition(janus, leaf, psi=100)
        assert janus.n_repartitions == n_before + 1

    def test_faster_than_full(self, world):
        """Partial re-partitioning should beat a full re-initialization."""
        import time
        janus, _, _ = world
        leaf = janus.dpt.leaves[2]
        report = partial_repartition(janus, leaf, psi=1)
        t0 = time.perf_counter()
        janus.reoptimize()
        full_seconds = time.perf_counter() - t0
        assert report.seconds < full_seconds


class TestAutoPartialRepartition:
    def test_runs_and_keeps_invariants(self, world):
        janus, _, _ = world
        leaf = janus.dpt.leaves[1]
        report = auto_partial_repartition(janus, leaf)
        assert report.n_leaves >= 1
        ids = [n.node_id for n in janus.dpt.nodes()]
        assert len(ids) == len(set(ids))
