"""Batched query engine: equivalence, bugfix regressions, empty batches.

The contract under test is that ``query_many`` answers are *bit-for-bit*
identical to a sequential ``query`` loop - estimate, both variance
components, exactness flag and frontier sizes - for every aggregation
function, across mixed templates, and through mid-batch sample churn.
Plus regression pins for the MIN/MAX exactness fix and the empty-batch
shape audit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.broker import Broker, decode_rows, encode_rows
from repro.core.dpt import DynamicPartitionTree
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import (AggFunc, Query, QueryResult, Rectangle,
                                SKETCH_AGGS)
from repro.core.sharded import ShardedJanusAQP
from repro.core.stream import StreamClient, StreamDriver
from repro.core.table import Table
from repro.core.templates import HeuristicRouter, SynopsisManager
from repro.datasets.synthetic import nyc_taxi
from repro.partitioning.spec import TreeSpec


# Sketch aggregates take no predicate rectangle; the range workloads
# here exclude them (covered end-to-end in test_sketch_properties).
ALL_AGGS = [a for a in AggFunc if a not in SKETCH_AGGS]


def assert_same_result(a: QueryResult, b: QueryResult) -> None:
    """Bit-for-bit equality of two query results (NaN == NaN)."""
    if math.isnan(a.estimate):
        assert math.isnan(b.estimate)
    else:
        assert a.estimate == b.estimate
    assert a.variance_catchup == b.variance_catchup
    assert a.variance_sample == b.variance_sample
    assert a.exact == b.exact
    assert a.n_covered == b.n_covered
    assert a.n_partial == b.n_partial


def random_queries(rng, table, agg_attr, predicate_attrs, n):
    """A randomized workload cycling through every aggregate."""
    queries = []
    domains = [table.domain(a) for a in predicate_attrs]
    for i in range(n):
        lo, hi = [], []
        for d_lo, d_hi in domains:
            a, b = sorted(rng.uniform(d_lo, d_hi, 2))
            lo.append(a)
            hi.append(b)
        queries.append(Query(ALL_AGGS[i % len(ALL_AGGS)], agg_attr,
                             tuple(predicate_attrs),
                             Rectangle(tuple(lo), tuple(hi))))
    return queries


def assert_same_fields(a: QueryResult, b: QueryResult) -> None:
    """Every field of two results equal, ``details`` included."""
    for f in dataclasses.fields(a):
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


def edge_queries(engines, agg_attr, predicate_attrs, seed=0, n=4):
    """Rectangles uniform bounds never draw, each under every aggregate:
    both bounds on resident sample values, ``lo == hi`` on a sample row,
    and ``(-inf, x]`` sides ending on one."""
    pts = np.concatenate([
        e._leaf_samples(leaf)[:, [e.table.schema.index(a)
                                  for a in predicate_attrs]]
        for e in engines for leaf in e.dpt.leaves])
    rng = np.random.default_rng(seed)
    rects = []
    for _ in range(n):
        a, b, p = pts[rng.integers(len(pts), size=3)]
        rects += [(np.minimum(a, b), np.maximum(a, b)), (p, p),
                  (np.full(p.shape, -math.inf), p)]
    return [Query(agg, agg_attr, tuple(predicate_attrs),
                  Rectangle(tuple(lo.tolist()), tuple(hi.tolist())))
            for lo, hi in rects for agg in ALL_AGGS]


@pytest.fixture
def janus_1d():
    ds = nyc_taxi(n=20_000, seed=0)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:15_000])
    cfg = JanusConfig(k=32, sample_rate=0.02, catchup_rate=0.10,
                      check_every=10 ** 9, seed=0)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    return janus, ds


@pytest.fixture
def janus_2d():
    ds = nyc_taxi(n=8_000, seed=4)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    pred_attrs = ("pickup_time", "pickup_time_of_day")
    cfg = JanusConfig(k=16, sample_rate=0.03, check_every=10 ** 9, seed=4)
    janus = JanusAQP(table, ds.agg_attr, pred_attrs, config=cfg)
    janus.initialize()
    return janus, ds


class TestBatchEquivalence:
    def test_all_aggregates_match_sequential_loop(self, janus_1d):
        janus, ds = janus_1d
        rng = np.random.default_rng(1)
        queries = random_queries(rng, janus.table, ds.agg_attr,
                                 ds.predicate_attrs, 140) + \
            edge_queries([janus], ds.agg_attr, ds.predicate_attrs)
        sequential = [janus.query(q) for q in queries]
        batched = janus.query_many(queries)
        assert len(batched) == len(queries)
        for a, b in zip(sequential, batched):
            assert_same_result(a, b)

    def test_equivalence_through_sample_churn(self, janus_1d):
        """The cached leaf matrices must track pool churn exactly."""
        janus, ds = janus_1d
        rng = np.random.default_rng(2)
        queries = random_queries(rng, janus.table, ds.agg_attr,
                                 ds.predicate_attrs, 105)
        for a, b in zip([janus.query(q) for q in queries],
                        janus.query_many(queries)):
            assert_same_result(a, b)
        # churn: bulk insert, bulk delete (forces reservoir evictions),
        # then per-row trickle
        janus.insert_many(ds.data[15_000:18_000])
        janus.delete_many(list(range(0, 4_000, 2)))
        for row in ds.data[18_000:18_050]:
            janus.insert(row)
        for a, b in zip([janus.query(q) for q in queries],
                        janus.query_many(queries)):
            assert_same_result(a, b)

    def test_equivalence_after_reoptimize(self, janus_1d):
        janus, ds = janus_1d
        rng = np.random.default_rng(3)
        janus.insert_many(ds.data[15_000:17_000])
        janus.reoptimize()
        queries = random_queries(rng, janus.table, ds.agg_attr,
                                 ds.predicate_attrs, 70)
        for a, b in zip([janus.query(q) for q in queries],
                        janus.query_many(queries)):
            assert_same_result(a, b)

    def test_multidim_template(self, janus_2d):
        janus, ds = janus_2d
        pred_attrs = janus.predicate_attrs
        rng = np.random.default_rng(5)
        queries = random_queries(rng, janus.table, ds.agg_attr,
                                 pred_attrs, 105) + \
            edge_queries([janus], ds.agg_attr, pred_attrs)
        for a, b in zip([janus.query(q) for q in queries],
                        janus.query_many(queries)):
            assert_same_result(a, b)

    def test_single_query_batch_matches_query(self, janus_1d):
        janus, ds = janus_1d
        rng = np.random.default_rng(6)
        for q in random_queries(rng, janus.table, ds.agg_attr,
                                ds.predicate_attrs, 14):
            assert_same_result(janus.query(q), janus.query_many([q])[0])

    @pytest.mark.parametrize("engine", ["janus_1d", "janus_2d"])
    def test_partial_leaf_with_empty_stratum(self, engine, request):
        """A lone query over a partial leaf whose sample block is empty
        answers as the same query inside a batch does."""
        janus, ds = request.getfixturevalue(engine)
        dpt, attrs = janus.dpt, janus.predicate_attrs
        leaf = next(lf for lf in dpt.leaves
                    if np.isfinite(lf.rect.lo + lf.rect.hi).all())
        cutting, inside = leaf_queries(dpt, leaf, ds.agg_attr)
        for q in cutting + inside:
            assert leaf.row in dpt.frontier(q.rect)[1]
        empty = np.empty((0, len(dpt.schema)))

        def samples(lf):
            return empty if lf.row == leaf.row else janus._leaf_samples(lf)

        rng = np.random.default_rng(8)
        queries = cutting + inside + \
            random_queries(rng, janus.table, ds.agg_attr, attrs, 14)
        batched = dpt.query_many(queries, samples)
        for q, b in zip(queries, batched):
            assert_same_fields(dpt.query_many([q], samples)[0], b)

    def test_frontier_many_matches_scalar(self, janus_1d):
        """Same nodes in the same order as the scalar traversal."""
        janus, ds = janus_1d
        rng = np.random.default_rng(7)
        queries = random_queries(rng, janus.table, ds.agg_attr,
                                 ds.predicate_attrs, 50)
        rects = [q.rect for q in queries]
        covers, partials = janus.dpt.frontier_many(rects)
        for rect, cover_b, partial_b in zip(rects, covers, partials):
            assert janus.dpt.frontier(rect) == (cover_b, partial_b)


def leaf_queries(dpt, leaf, agg_attr):
    """Queries with ``leaf`` as a partial leaf, under every aggregate:
    two rectangles cutting it partway, and one strictly inside it (its
    only partial leaf)."""
    lo, hi = np.array(leaf.rect.lo), np.array(leaf.rect.hi)
    mid, width = (lo + hi) / 2, hi - lo

    def each(lo, hi):
        return [Query(agg, agg_attr, dpt.predicate_attrs,
                      Rectangle(tuple(lo), tuple(hi))) for agg in ALL_AGGS]
    return (each(mid, hi + width) + each(lo - width, mid),
            each(lo + width / 4, hi - width / 4))


def churned_engine(dim, churn, rng):
    """A fresh small engine (1-D or 2-D template) driven through
    ``churn``: ``(insert?, n)`` steps inserting the next ``n`` rows or
    deleting ``n`` random live ones."""
    ds = nyc_taxi(n=6_000, seed=3)
    attrs = ds.predicate_attrs if dim == 1 else \
        ("pickup_time", "pickup_time_of_day")
    table = Table(ds.schema, capacity=ds.n + 16)
    live = table.insert_many(ds.data[:4_000])
    janus = JanusAQP(table, ds.agg_attr, attrs, config=JanusConfig(
        k=16, sample_rate=0.05, check_every=10 ** 9, seed=3))
    janus.initialize()
    at = 4_000
    for insert, n in churn:
        if insert:
            live += janus.insert_many(ds.data[at:at + n])
            at += n
        else:
            gone = set(rng.choice(len(live), size=n, replace=False)
                       .tolist())
            janus.delete_many([t for i, t in enumerate(live) if i in gone])
            live = [t for i, t in enumerate(live) if i not in gone]
    return janus, ds


class TestBatchProperty:
    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=20, deadline=None)
    @given(churn=st.lists(st.tuples(st.booleans(), st.integers(1, 400)),
                          max_size=4),
           size=st.integers(1, 80), empty=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_equals_its_lone_answers(self, dim, churn, size, empty,
                                           seed):
        """``query_many(batch)[i]`` equals ``query_many([q_i])[0]`` field
        for field, for every tree aggregate, through insert / delete
        churn: batches of 1-80 queries with duplicates, rectangles on
        sample values and, with ``empty``, a leaf whose stratum is
        emptied, rectangles cutting it in front and rectangles inside
        it at the end (its pair is the batch's last)."""
        rng = np.random.default_rng(seed)
        janus, ds = churned_engine(dim, churn, rng)
        dpt, attrs = janus.dpt, janus.predicate_attrs
        finite = [lf for lf in dpt.leaves
                  if np.isfinite(lf.rect.lo + lf.rect.hi).all()]
        gone = finite[rng.integers(len(finite))] if empty else None
        none = np.empty((0, len(dpt.schema)))

        def samples(leaf):
            return none if gone is not None and leaf.row == gone.row \
                else janus._leaf_samples(leaf)

        pool = random_queries(rng, janus.table, ds.agg_attr, attrs, 20) + \
            edge_queries([janus], ds.agg_attr, attrs, seed=seed, n=2)
        batch = [pool[i] for i in rng.integers(len(pool), size=size)]
        if gone is not None:
            cutting, inside = leaf_queries(dpt, gone, ds.agg_attr)
            batch = (cutting + batch)[:80 - len(inside)] + inside
        for got, q in zip(dpt.query_many(batch, samples), batch):
            assert_same_fields(got, dpt.query_many([q], samples)[0])
        for got, q in zip(janus.query_many(batch), batch):
            assert_same_fields(got, janus.query_many([q])[0])


class TestFlatMoments:
    """``_leaf_moments`` / ``_lone_moments`` against numpy on the
    leaf blocks, on a hand-built three-leaf tree: pairs (left, mid,
    right, left) with the mid stratum empty, a point box on a sample
    value and a ``(-inf, x]`` side.  Values are dyadic, so every sum
    is exact in any order."""

    BLOCKS = {1: np.array([[1.0, 1.5], [4.0, -2.25], [6.0, 3.0],
                           [9.0, 0.5]]),
              2: np.empty((0, 2)),
              3: np.array([[25.0, 4.0], [21.0, -1.0], [25.0, 7.5]])}

    def tree(self):
        root = Rectangle((0.0,), (30.0,))
        left = Rectangle((0.0,), (10.0,))
        mid = Rectangle((math.nextafter(10.0, math.inf),), (20.0,))
        right = Rectangle((math.nextafter(20.0, math.inf),), (30.0,))
        return DynamicPartitionTree(
            TreeSpec.of([-1, 0, 0, 0], [root, left, mid, right]),
            ("x", "a"), ("x",), minmax_attrs=("a",))

    def test_six_lists_equal_numpy_on_the_blocks(self):
        dpt = self.tree()
        rects = [Rectangle((3.0,), (7.0,)),           # left
                 Rectangle((12.0,), (15.0,)),         # mid: empty
                 Rectangle((25.0,), (25.0,)),         # point on right
                 Rectangle((-math.inf,), (4.0,))]     # (-inf, x] left
        queries = [Query(AggFunc.SUM, "a", ("x",), r) for r in rects]

        def samples(leaf):
            return self.BLOCKS[leaf.row]

        want = []
        for rect in rects:
            partial = dpt.frontier(rect)[1]
            assert len(partial) == 1
            block = self.BLOCKS[partial[0]]
            hit = (block[:, 0] >= rect.lo[0]) & (block[:, 0] <= rect.hi[0])
            vals = block[hit, 1]
            want.append((block.shape[0], int(hit.sum()),
                         float(vals.sum()), float((vals * vals).sum()),
                         float(vals.min()) if vals.size else math.inf,
                         float(vals.max()) if vals.size else -math.inf))
        assert [w[0] for w in want] == [4, 0, 3, 4]
        assert [w[1] for w in want] == [2, 0, 2, 2]
        columns = [list(c) for c in zip(*want)]
        partials = dpt.frontier_many(rects)[1]
        got = dpt._leaf_moments(queries, partials, samples)
        assert repr([list(c) for c in got]) == repr(columns)
        for q, w in zip(queries, want):
            lone = dpt._lone_moments(q, dpt.frontier(q.rect)[1], samples)
            assert repr([list(c) for c in lone]) == \
                repr([[v] for v in w])


class TestShardedLone:
    def test_lone_answer_equals_its_batched_answer_when_routed(self):
        """``query_many([q])[0]`` of the routed coordinator equals ``q``'s
        answer inside a batch, field for field, for every tree
        aggregate - lone reads take the one-rectangle planner and the
        lone engine paths, a batch the vectorized ones."""
        ds = nyc_taxi(n=12_000, seed=14)
        fleet = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=4,
            sharding="attr", config=JanusConfig(
                k=16, sample_rate=0.05, check_every=10 ** 9, seed=14))
        fleet.insert_many(ds.data[:10_000])
        fleet.initialize()
        rng = np.random.default_rng(15)
        engines = [shard.engine for shard in fleet._shards]
        for step in range(2):
            queries = random_queries(rng, fleet.table, ds.agg_attr,
                                     ds.predicate_attrs, 70) + \
                edge_queries(engines, ds.agg_attr, ds.predicate_attrs,
                             seed=step)
            batched = fleet.query_many(queries, route=True)
            for q, b in zip(queries, batched):
                assert_same_fields(fleet.query_many([q], route=True)[0], b)
            fleet.insert_many(ds.data[10_000 + 500 * step:
                                      10_500 + 500 * step])
            fleet.delete_many(list(range(step, 3_000, 7)))
        hist = fleet.routing_stats()["shards_touched_hist"]
        assert hist[1] > 0 and sum(hist[2:]) > 0, hist
        fleet.close()


class TestMixedTemplates:
    def test_manager_query_many_matches_loop(self):
        ds = nyc_taxi(n=12_000, seed=8)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        manager = SynopsisManager(table, JanusConfig(
            k=16, sample_rate=0.02, check_every=10 ** 9, seed=8))
        manager.add_template(ds.agg_attr, ds.predicate_attrs)
        other_attr = next(a for a in ds.schema
                          if a not in (ds.agg_attr,) +
                          tuple(ds.predicate_attrs))
        manager.add_template(other_attr, ds.predicate_attrs)
        rng = np.random.default_rng(9)
        queries = []
        for i, q in enumerate(random_queries(rng, table, ds.agg_attr,
                                             ds.predicate_attrs, 60)):
            attr = ds.agg_attr if i % 2 == 0 else other_attr
            queries.append(Query(q.agg, attr, q.predicate_attrs, q.rect))
        sequential = [manager.query(q) for q in queries]
        batched = manager.query_many(queries)
        for a, b in zip(sequential, batched):
            assert_same_result(a, b)

    def test_router_query_many_matches_loop(self, janus_1d):
        janus, ds = janus_1d
        router = HeuristicRouter(janus)
        rng = np.random.default_rng(10)
        tree_queries = random_queries(rng, janus.table, ds.agg_attr,
                                      ds.predicate_attrs, 20)
        fallback_attr = next(a for a in ds.schema
                             if a not in ds.predicate_attrs)
        fallback = [Query(AggFunc.SUM, ds.agg_attr, (fallback_attr,),
                          Rectangle((-math.inf,), (math.inf,)))]
        queries = tree_queries[:10] + fallback + tree_queries[10:]
        sequential = [router.query(q) for q in queries]
        batched = router.query_many(queries)
        for a, b in zip(sequential, batched):
            assert_same_result(a, b)
        assert batched[10].details.get("fallback") == "uniform"


class TestMinMaxExactness:
    """A covered node with no extremum information adds no MIN/MAX
    candidate, and a tree's MIN/MAX answer is never exact."""

    def _two_leaf_tree(self):
        # Three leaves so a finite-interior query can fully cover two of
        # them (boundary leaves stretch to infinity after edge
        # inflation).
        root = Rectangle((0.0,), (30.0,))
        left = Rectangle((0.0,), (10.0,))
        mid = Rectangle((math.nextafter(10.0, math.inf),), (20.0,))
        right = Rectangle((math.nextafter(20.0, math.inf),), (30.0,))
        spec = TreeSpec.of([-1, 0, 0, 0], [root, left, mid, right])
        return DynamicPartitionTree(spec, ("x", "a"), ("x",),
                                    minmax_attrs=("a",))

    @staticmethod
    def _no_samples(_leaf):
        return np.empty((0, 2))

    def test_covered_node_without_extremum_clears_exact(self):
        dpt = self._two_leaf_tree()
        mid = dpt.children(dpt.node(0))[1]
        pos = dpt.stat_pos("a")
        # Left leaf: two rows, so its heap knows the extremum.
        dpt.insert_rows(np.array([[3.0, 4.0], [4.0, 5.0]]))
        # Mid leaf: empty - no extremum information at all.
        assert dpt.table.column("extreme_estimates", pos, False)[mid.row] \
            is None
        query = Query(AggFunc.MIN, "a", ("x",),
                      Rectangle((-math.inf,), (20.0,)))
        result = dpt.query(query, self._no_samples)
        # The left leaf's MIN is the only candidate; the mid node adds
        # none, and the answer does not claim exactness.
        assert result.estimate == 4.0
        assert result.n_covered == 2 and result.n_partial == 0
        assert not result.exact
        assert_same_result(result, dpt.query_many([query],
                                                  self._no_samples)[0])

    def test_all_candidates_missing_is_nan_not_exact(self):
        dpt = self._two_leaf_tree()
        query = Query(AggFunc.MAX, "a", ("x",),
                      Rectangle((-math.inf,), (20.0,)))
        result = dpt.query(query, self._no_samples)
        assert math.isnan(result.estimate)
        assert not result.exact


class TestEmptyBatches:
    def test_decode_rows_keeps_schema_width(self):
        out = decode_rows([], n_attrs=5)
        assert out.shape == (0, 5)
        assert decode_rows([]).shape == (0, 0)
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(decode_rows(encode_rows(rows), n_attrs=2),
                              rows)

    def test_query_many_empty(self, janus_1d):
        janus, _ = janus_1d
        assert janus.query_many([]) == []
        assert janus.dpt.query_many([], janus._leaf_samples) == []

    def test_janus_empty_ingest_batches(self, janus_1d):
        janus, _ = janus_1d
        n_before = len(janus.table)
        assert janus.insert_many(np.empty((0, len(janus.table.schema)))) \
            == []
        assert janus.insert_many(np.array([])) == []
        janus.delete_many([])
        assert len(janus.table) == n_before

    def test_table_empty_batches(self):
        table = Table(("x", "y"))
        table.insert_many(np.array([[1.0, 2.0]]))
        assert table.insert_many(np.array([])) == []
        assert table.insert_many(np.empty((0, 2))) == []
        removed = table.delete_many([])
        assert removed.shape == (0, 2)
        assert len(table) == 1

    def test_dpt_empty_row_batches(self, janus_1d):
        janus, _ = janus_1d
        dpt = janus.dpt
        before = dpt.n_updates
        assert dpt.insert_rows(np.array([])).shape == (0,)
        assert dpt.delete_rows(np.empty((0, len(dpt.schema)))).shape \
            == (0,)
        dpt.add_catchup_rows(np.array([]))
        assert dpt.n_updates == before

    def test_manager_empty_batches(self):
        ds = nyc_taxi(n=2_000, seed=11)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        manager = SynopsisManager(table, JanusConfig(
            k=8, sample_rate=0.05, check_every=10 ** 9, seed=11))
        manager.add_template(ds.agg_attr, ds.predicate_attrs)
        assert manager.insert_many(np.array([])) == []
        manager.delete_many([])
        assert manager.query_many([]) == []


class TestStreamQueryLane:
    def test_execute_many_drain_matches_direct(self, janus_1d):
        janus, ds = janus_1d
        broker = Broker()
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        rng = np.random.default_rng(12)
        queries = random_queries(rng, janus.table, ds.agg_attr,
                                 ds.predicate_attrs, 105)
        direct = janus.query_many(queries)
        ids = client.execute_many(queries)
        stats = driver.drain()
        assert stats.n_queries == len(queries)
        for qid, expected in zip(ids, direct):
            assert_same_result(driver.results[qid], expected)

    def test_results_topic_carries_full_envelope(self, janus_1d):
        from repro.broker.requests import decode_result
        janus, ds = janus_1d
        broker = Broker()
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        rng = np.random.default_rng(13)
        queries = random_queries(rng, janus.table, ds.agg_attr,
                                 ds.predicate_attrs, 21)
        ids = client.execute_many(queries)
        driver.drain()
        topic = broker.topic(StreamDriver.RESULTS)
        records = topic.poll(0, len(queries) + 5)
        assert len(records) == len(queries)
        for record in records:
            response = decode_result(record)
            assert_same_result(response.result,
                               driver.results[response.query_id])
        assert set(r.query_id for r in map(decode_result, records)) == \
            set(ids)

    def test_bad_query_record_counted_not_fatal(self, janus_1d):
        janus, ds = janus_1d
        broker = Broker()
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        q = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        first = client.execute(q)
        broker.topic(Broker.EXECUTE).produce("garbage record")
        second = client.execute(q)
        stats = driver.drain()
        assert stats.n_bad_requests == 1
        assert stats.n_queries == 2
        assert first in driver.results and second in driver.results

    def test_template_mismatch_does_not_poison_batch(self, janus_1d):
        """A well-formed record carrying a template the synopsis cannot
        answer must not drop the co-batched queries after it."""
        janus, ds = janus_1d
        broker = Broker()
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        good = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                     Rectangle((-math.inf,), (math.inf,)))
        other_attr = next(a for a in ds.schema
                          if a not in ds.predicate_attrs)
        bad = Query(AggFunc.COUNT, ds.agg_attr, (other_attr,),
                    Rectangle((-math.inf,), (math.inf,)))
        ids = client.execute_many([good, bad, good, good])
        stats = driver.drain()
        assert stats.n_bad_requests == 1
        assert stats.n_queries == 3
        answered = [ids[0], ids[2], ids[3]]
        assert all(i in driver.results for i in answered)
        assert ids[1] not in driver.results
