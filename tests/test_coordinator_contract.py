"""One coordinator contract, two shard backends (ISSUE 14).

``ShardedJanusAQP`` is the only sharded coordinator; what differs is
what sits behind its shard seam.  One scripted interleaving - warm
start, insert / delete / reoptimize, queries over all seven range
aggregates plus a sketch aggregate, rejected batches - runs against
``load_sharded`` (``LocalShard``) and ``FleetCoordinator``
(``RemoteShard`` worker processes) of the same snapshot, and both
transcripts (returned tids, every answer field, epochs, sizes, tid
ownership) must equal a reference run bit for bit.

A process-free case swaps one ``LocalShard`` for a subclass whose
``query`` raises the fleet's unavailable error: queries the router
prunes away from the dead shard still answer, the rest surface the
error instead of a partial answer.

The five ways a query sits on or off ``engine.template`` get one
verdict - ``ValueError`` with the template's reason, before any shard
is asked - from a single engine, both backends, the heuristic router
and both HTTP read routes.
"""

import math

import numpy as np
import pytest

from repro.core.janus import JanusConfig
from repro.core.persist import load_sharded, save_sharded
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.templates import HeuristicRouter
from repro.core.sharded import LocalShard, ShardedJanusAQP
from repro.datasets.synthetic import nyc_taxi
from repro.service import ServiceClient, ServiceError, serve_background
from repro.service.fleet import FleetCoordinator, FleetUnavailableError

N_ROWS = 9_000
N_SEED = 6_000
N_SHARDS = 3
SKETCH_ATTR = "passenger_count"
RANGE_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
              AggFunc.MAX, AggFunc.VARIANCE, AggFunc.STDDEV)
FULL = Rectangle((-math.inf,), (math.inf,))


@pytest.fixture(scope="module")
def ds():
    return nyc_taxi(n=N_ROWS, seed=5)


def seeded_engine(ds):
    """seed -> initialize, attr-placed so the router has work to do;
    ``repartition_every`` is small enough that the script's inserts
    trip an auto-repartition (the exact-summary branch of ingest)."""
    engine = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=N_SHARDS,
        sharding="attr",
        config=JanusConfig(k=16, sample_rate=0.05, seed=0,
                           repartition_every=1500,
                           sketch_attrs=(SKETCH_ATTR,)))
    engine.insert_many(ds.data[:N_SEED])
    engine.initialize()
    return engine


@pytest.fixture(scope="module")
def snapshot(ds, tmp_path_factory):
    path = tmp_path_factory.mktemp("contract-snap")
    engine = seeded_engine(ds)
    save_sharded(engine, path)
    engine.close()
    return path


def workload(ds):
    col = ds.column(ds.predicate_attrs[0])
    lo, span = float(col.min()), float(col.max() - col.min())
    queries = [Query(agg, ds.agg_attr, ds.predicate_attrs,
                     Rectangle((lo + a * span,), (lo + b * span,)))
               for agg in RANGE_AGGS
               for a, b in ((0.0, 0.2), (0.3, 0.7), (0.1, 1.0))]
    queries.append(Query(AggFunc.COUNT_DISTINCT, SKETCH_ATTR,
                         ds.predicate_attrs, FULL))
    return queries


def canon(value):
    """A bit-exact, NaN-safe comparable form of an answer field."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(canon(v) for v in value)
    return value


def answers(engine, queries):
    out = []
    for route in (True, False):
        for r in engine.query_many(queries, route=route):
            out.append((canon(float(r.estimate)),
                        canon(float(r.variance_catchup)),
                        canon(float(r.variance_sample)),
                        bool(r.exact), int(r.n_covered),
                        int(r.n_partial),
                        sorted((k, canon(v))
                               for k, v in r.details.items())))
    return out


def state(engine, probe_tids):
    """Everything the coordinator reports about itself."""
    return {
        "len": len(engine),
        "table_len": len(engine.table),
        "sizes": engine.shard_sizes(),
        "epoch": engine.data_epoch,
        "next_tid": engine._placement.next_tid,
        "live": [t in engine.table for t in probe_tids],
        "owners": [engine.shard_of(t) if t in engine.table else None
                   for t in probe_tids],
        "routing": engine.routing_stats(),
    }


def run_script(engine, ds):
    """The interleaving; returns its transcript.  Per-backend
    invariants (rejections leave no trace, epochs only grow) are
    asserted on the way."""
    queries = workload(ds)
    transcript = []
    epochs = [engine.data_epoch]

    def record(label, value):
        transcript.append((label, value))
        epochs.append(engine.data_epoch)

    probes = [0, 17, N_SEED - 1, N_SEED, N_SEED + 700, N_ROWS - 1,
              N_ROWS + 5]
    record("warm", answers(engine, queries))
    record("warm-state", state(engine, probes))

    t1 = engine.insert_many(ds.data[N_SEED:N_SEED + 1500])
    record("insert", t1)
    record("insert-answers", answers(engine, queries))

    engine.delete_many(t1[:400] + list(range(100, 300)))
    record("delete-answers", answers(engine, queries))
    record("delete-state", state(engine, probes))

    # Rejected batches: nothing may change, no shard may be touched.
    before = state(engine, probes)
    with pytest.raises(KeyError):
        engine.delete_many([t1[0]])                  # already dead
    with pytest.raises(KeyError):
        engine.delete_many([t1[500], 10 ** 9])       # never existed
    with pytest.raises(KeyError):
        engine.delete_many([t1[500], t1[501], t1[500]])   # duplicate
    with pytest.raises(ValueError):
        engine.insert_many(np.zeros((10, len(ds.schema) - 2)))
    assert state(engine, probes) == before
    engine.delete_many([t1[500]])    # the rejected batches spared it
    record("single-delete", engine.data_epoch)

    engine.reoptimize()
    record("reoptimize-answers", answers(engine, queries))

    tid = engine.insert(ds.data[N_SEED + 1500])
    record("insert-one", tid)
    t2 = engine.insert_many(ds.data[N_SEED + 1501:])
    record("insert-rest", t2)
    engine.delete(tid)
    record("final-answers", answers(engine, queries))
    record("final-state", state(engine, probes))

    assert all(b >= a for a, b in zip(epochs, epochs[1:])), epochs
    assert epochs[-1] > epochs[0]
    final = transcript[-1][1]
    assert final["len"] == final["table_len"] == sum(final["sizes"])
    return transcript


@pytest.fixture(scope="module")
def reference(ds, snapshot):
    engine = load_sharded(snapshot)
    try:
        return run_script(engine, ds)
    finally:
        engine.close()


def open_local(snapshot):
    return load_sharded(snapshot)


def open_remote(snapshot):
    return FleetCoordinator(snapshot, supervise=False)


@pytest.mark.parametrize("open_engine", [open_local, open_remote],
                         ids=["local", "remote"])
def test_scripted_interleaving_is_backend_independent(
        ds, snapshot, reference, open_engine):
    engine = open_engine(snapshot)
    try:
        transcript = run_script(engine, ds)
        pooled = engine._pool is not None
    finally:
        engine.close()
    # The seam decides dispatch: routed and broadcast queries, inserts,
    # deletes and an auto-repartition never hop threads to reach
    # in-process shards (no pool is ever built); worker shards, which
    # block on a socket, overlap on the pool.
    assert pooled == (open_engine is open_remote)
    assert [label for label, _ in transcript] == \
        [label for label, _ in reference]
    for (label, got), (_, want) in zip(transcript, reference):
        assert got == want, label


def open_single(snapshot):
    return load_sharded(snapshot).shards[0]


def template_cases(ds):
    """``(query, its /sql form, the reason or None if on-template)``;
    every column is tracked here, so the untracked one is made up."""
    preds, col = ds.predicate_attrs, ds.predicate_attrs[0]
    box, where = Rectangle((0.0,), (1e9,)), f"WHERE {col} BETWEEN 0 AND 1e9"
    return [
        (Query(AggFunc.SUM, ds.agg_attr, ("fare",), box),
         f"SELECT SUM({ds.agg_attr}) FROM t WHERE fare <= 1e9",
         "do not match"),                   # /sql: "not a predicate ..."
        (Query(AggFunc.SUM, "nope", preds, box),
         f"SELECT SUM(nope) FROM t {where}", "not tracked"),
        (Query(AggFunc.COUNT, "nope", preds, box),
         f"SELECT COUNT(nope) FROM t {where}", None),
        (Query(AggFunc.COUNT_DISTINCT, "fare", preds, FULL),
         "SELECT COUNT(DISTINCT fare) FROM t", "sketch is maintained"),
        (Query(AggFunc.PERCENTILE, SKETCH_ATTR, preds, box, 0.5),
         f"SELECT PERCENTILE({SKETCH_ATTR}, 0.5) FROM t {where}",
         "unbounded predicate")]


@pytest.mark.parametrize("open_engine",
                         [open_single, open_local, open_remote],
                         ids=["single", "local", "remote"])
def test_off_template_queries_get_one_verdict_everywhere(
        ds, snapshot, open_engine):
    engine = open_engine(snapshot)
    shards = getattr(engine, "_shards", None)
    good = workload(ds)[0]
    try:
        for query, sql, reason in template_cases(ds):
            if reason is None:
                assert engine.query(query).estimate > 0
                continue
            if shards is not None:
                engine._shards = None   # touching a shard: a TypeError
            with pytest.raises(ValueError, match=reason) as err:
                engine.query_many([good, query])
            assert type(err.value) is ValueError
            assert str(err.value) == engine.template.problem(query)
            if shards is not None:
                engine._shards = shards
        with serve_background(engine, port=0) as handle, \
                ServiceClient(handle.host, handle.port) as client:
            for query, sql, reason in template_cases(ds):
                if reason is None:
                    assert client.sql(sql).estimate == \
                        client.query(query).estimate
                    continue
                for ask, arg, why in (
                        (client.query, query, reason),
                        (client.sql, sql, reason.replace(
                            "do not match", "not a predicate attribute"))):
                    with pytest.raises(ServiceError, match=why) as err:
                        ask(arg)
                    assert err.value.status == 400
        if shards is None:      # the router: the non-raising form
            router = HeuristicRouter(engine)
            for i, (query, _, reason) in enumerate(template_cases(ds)):
                off = router.template.problem(query) is not None
                assert off == (reason is not None)
                if i in (0, 2):     # the rest have no uniform estimate
                    assert ("fallback" in
                            router.query(query).details) == off
    finally:
        if shards is not None:
            engine._shards = shards
            engine.close()


class DeadShard(LocalShard):
    """A shard whose worker is gone, without a process to kill."""

    def query(self, queries, obs=None, parent=None):
        raise FleetUnavailableError(f"shard {self.shard_id} is down")


def test_router_pruned_queries_survive_an_unavailable_shard(ds):
    engine = seeded_engine(ds)
    try:
        dead = N_SHARDS - 1
        healthy = engine._shards[dead]
        engine._shards[dead] = DeadShard(healthy.engine, dead, N_SHARDS)
        cut = float(engine.attr_bounds[0])
        narrow = [Query(agg, ds.agg_attr, ds.predicate_attrs,
                        Rectangle((-math.inf,), (cut - 1.0,)))
                  for agg in RANGE_AGGS]
        plans = engine._plan(narrow, list(range(N_SHARDS)))
        assert all(dead not in plan for plan in plans)
        got = engine.query_many(narrow)
        engine._shards[dead] = healthy
        want = engine.query_many(narrow)
        engine._shards[dead] = DeadShard(healthy.engine, dead, N_SHARDS)
        assert [canon(float(r.estimate)) for r in got] == \
            [canon(float(r.estimate)) for r in want]

        wide = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs, FULL)
        with pytest.raises(FleetUnavailableError):
            engine.query(wide)
        with pytest.raises(FleetUnavailableError):
            engine.query_many(narrow + [wide])
        with pytest.raises(FleetUnavailableError):
            engine.query_many(narrow, route=False)   # broadcast asks all
        # writes do not go through ``query``: they still commit
        before = len(engine)
        engine.insert_many(ds.data[N_SEED:N_SEED + 50])
        assert len(engine) == before + 50
    finally:
        engine.close()
