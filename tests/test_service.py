"""End-to-end tests for the HTTP serving layer (repro.service).

The acceptance spine of ISSUE 5: a live server on an ephemeral port,
ingest over HTTP, the same aggregates through ``/sql`` and ``/query``,
and answers bit-identical to in-process ``query_many`` with the cache
disabled; plus protocol errors, stats/metrics surfaces, cache
invalidation on every mutation kind, and micro-batch grouping of
concurrent requests.
"""

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.requests import query_to_dict
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import (AggFunc, Query, QueryResult, Rectangle,
                                WireSchema)
from repro.core.sharded import ShardedJanusAQP
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi
from repro.service import ServiceClient, ServiceError, serve_background

N_ROWS = 9_000
N_SEED = 6_000
ALL_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
            AggFunc.MAX, AggFunc.VARIANCE, AggFunc.STDDEV)
ENVELOPE = [f.key for f in WireSchema(QueryResult).fields]


@pytest.fixture(scope="module")
def ds():
    return nyc_taxi(n=N_ROWS, seed=3)


def build_single(ds):
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:N_SEED])
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                     config=JanusConfig(k=16, sample_rate=0.04,
                                        check_every=10 ** 9, seed=0))
    janus.initialize()
    return janus


def build_sharded(ds, n_shards=3):
    sharded = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=n_shards,
        config=JanusConfig(k=8, sample_rate=0.04, check_every=10 ** 9,
                           seed=0))
    sharded.insert_many(ds.data[:N_SEED])
    sharded.initialize()
    return sharded


def workload(ds, n=21):
    rng = np.random.default_rng(11)
    queries = []
    for i in range(n):
        lo, hi = sorted(rng.uniform(0, 500, 2))
        queries.append(Query(ALL_AGGS[i % len(ALL_AGGS)], ds.agg_attr,
                             ds.predicate_attrs,
                             Rectangle((lo,), (hi,))))
    return queries


def sql_for(query: Query) -> str:
    col = query.predicate_attrs[0]
    return (f"SELECT {query.agg.value}({query.attr}) FROM t "
            f"WHERE {col} BETWEEN {float(query.rect.lo[0])!r} "
            f"AND {float(query.rect.hi[0])!r}")


class TestEndToEnd:
    """The ISSUE 5 acceptance path, single-instance and sharded."""

    @pytest.mark.parametrize("build", [build_single, build_sharded],
                             ids=["single", "sharded"])
    def test_http_matches_inprocess_bit_identically(self, ds, build):
        engine = build(ds)
        queries = workload(ds)
        with serve_background(engine, port=0,
                              cache_enabled=False) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                # ingest over HTTP, then answer over both query planes
                tids = client.insert_many(ds.data[N_SEED:N_SEED + 500])
                assert len(tids) == 500
                client.delete_many(tids[:100])
                via_query = client.query_many(queries)
                via_sql = client.sql_many([sql_for(q) for q in queries])
            expected = engine.query_many(queries)
            for got, sqlgot, want in zip(via_query, via_sql, expected):
                for name in ENVELOPE:
                    want_v = getattr(want, name)
                    if isinstance(want_v, float) and math.isnan(want_v):
                        assert math.isnan(getattr(got, name))
                        assert math.isnan(getattr(sqlgot, name))
                        continue
                    assert getattr(got, name) == want_v
                    assert getattr(sqlgot, name) == want_v

    def test_single_query_and_sql_forms(self, ds):
        engine = build_single(ds)
        query = workload(ds, n=1)[0]
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.health()
                a = client.query(query)
                b = client.sql(sql_for(query))
                assert a.estimate == b.estimate
                assert a.ci() == b.ci()

    def test_answers_without_an_interval_say_so(self, ds):
        """VARIANCE, MAX and COUNT DISTINCT answers reach the client
        with ``ci_available`` false and NaN bounds (``/sql`` JSON says
        ``"ci_available": false``); SUM and AVG keep the finite
        interval the engine computes in-process."""
        engine = build_sketched(ds)
        col, attr = ds.predicate_attrs[0], ds.agg_attr
        where = f"FROM t WHERE {col} BETWEEN 100 AND 400.5"
        statements = {
            f"SELECT SUM({attr}) {where}": True,
            f"SELECT AVG({attr}) {where}": True,
            f"SELECT VARIANCE({attr}) {where}": False,
            f"SELECT MAX({attr}) {where}": False,
            "SELECT COUNT(DISTINCT passenger_count) FROM t": False}
        with serve_background(engine, port=0) as handle, \
                ServiceClient(handle.host, handle.port) as client:
            for statement, has_ci in statements.items():
                got = client.sql(statement)
                raw = client._json("POST", "/sql", {"sql": statement})
                assert raw["result"]["ci_available"] is has_ci, statement
                assert got.ci_available is has_ci, statement
                want = engine.query(handle.server.bind_sql(statement))
                if has_ci:
                    assert got.ci() == want.ci(), statement
                    assert all(map(math.isfinite, got.ci())), statement
                else:
                    assert all(map(math.isnan, got.ci())), statement
                    assert math.isnan(got.ci_halfwidth()), statement

    def test_insert_delete_roundtrip_and_epochs(self, ds):
        engine = build_single(ds)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                before = len(engine.table)
                tids = client.insert_many(ds.data[N_SEED:N_SEED + 64])
                assert len(engine.table) == before + 64
                assert client.delete_many(tids) == 64
                assert len(engine.table) == before
                # epochs in responses are monotone
                raw1 = client._json("POST", "/insert", {
                    "rows": ds.data[N_SEED:N_SEED + 1].tolist()})
                raw2 = client._json("POST", "/delete",
                                    {"tids": raw1["tids"]})
                assert raw2["epoch"] > raw1["epoch"]


class TestCacheBehaviour:
    def test_repeat_query_hits_cache_with_identical_answer(self, ds):
        engine = build_single(ds)
        query = workload(ds, n=1)[0]
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                first = client.query(query)
                second = client.query(query)
                via_sql = client.sql(sql_for(query))
            assert not first.details["cached"]
            assert second.details["cached"]
            assert second.estimate == first.estimate
            assert second.variance == first.variance
            # the SQL plane shares the cache with the structured plane
            assert via_sql.details["cached"]
            assert handle.server.cache.stats()["hits"] == 2

    @pytest.mark.parametrize("mutate", [
        lambda c, e, ds: c.insert_many(ds.data[N_SEED:N_SEED + 32]),
        lambda c, e, ds: c.delete_many(list(range(32))),
        lambda c, e, ds: e.reoptimize(),
    ], ids=["insert", "delete", "reoptimize"])
    def test_mutations_invalidate_cache(self, ds, mutate):
        engine = build_single(ds)
        query = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                      Rectangle((-math.inf,), (math.inf,)))
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.query(query)                     # prime
                cached = client._json("POST", "/query",
                                      {"query": _qdict(query)})
                assert cached["cached"]
                mutate(client, engine, ds)
                fresh = client._json("POST", "/query",
                                     {"query": _qdict(query)})
                assert not fresh["cached"]
                expected = engine.query(query)
                assert fresh["result"]["estimate"] == expected.estimate

    def test_cache_disabled_never_reports_hits(self, ds):
        engine = build_single(ds)
        query = workload(ds, n=1)[0]
        with serve_background(engine, port=0,
                              cache_enabled=False) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                for _ in range(3):
                    payload = client._json("POST", "/query",
                                           {"query": _qdict(query)})
                    assert not payload["cached"]
            assert handle.server.cache.stats()["hits"] == 0


    def test_topk_decodes_its_sketch_once_per_answer(self, ds,
                                                     monkeypatch):
        """A TOPK cache hit does no sketch work: the item list read from
        the answer's sketch stays with the cached answer, and only a new
        answer (here: a write bumped the epoch) reads its sketch
        again."""
        from repro.sketch.counted import ExactCountSketch
        from repro.sketch.registry import SKETCH_KEY
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:N_SEED])
        engine = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                          config=JanusConfig(
                              k=16, sample_rate=0.04, seed=0,
                              check_every=10 ** 9,
                              sketch_attrs=("passenger_count",)))
        engine.initialize()
        top = ExactCountSketch.top
        read = []

        def counting(sketch, k):
            read.append(k)
            return top(sketch, k)

        monkeypatch.setattr(ExactCountSketch, "top", counting)
        query = Query(AggFunc.TOPK, "passenger_count",
                      ds.predicate_attrs,
                      Rectangle((-math.inf,), (math.inf,)), 3.0)

        def expected():
            return top(engine.query(query).details[SKETCH_KEY], 3)

        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                before = [client.query(query) for _ in range(5)]
                want_before = expected()
                client.insert_many(ds.data[N_SEED:N_SEED + 40])
                after = [client.query(query) for _ in range(3)]
                want_after = expected()
        assert [r.details["cached"] for r in before] == \
            [False] + [True] * 4
        assert [r.details["cached"] for r in after] == [False, True, True]
        assert all(r.details["topk"] == want_before for r in before)
        assert all(r.details["topk"] == want_after for r in after)
        assert read == [3, 3], read


ANSWER_FIELDS = ("estimate", "variance_catchup", "variance_sample",
                 "exact", "n_covered", "n_partial")

#: The sketch-backed aggregates over the column the sketched engine
#: below maintains sketches for.
SKETCH_SQL = ("SELECT PERCENTILE(passenger_count, 0.5) FROM t",
              "SELECT COUNT(DISTINCT passenger_count) FROM t",
              "SELECT TOPK(passenger_count, 3) FROM t")


def build_sketched(ds):
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:N_SEED])
    engine = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                      config=JanusConfig(
                          k=16, sample_rate=0.04, seed=0,
                          check_every=10 ** 9,
                          sketch_attrs=("passenger_count",)))
    engine.initialize()
    return engine


def template_engine():
    """Just enough engine to construct an ``AQPServer`` around."""
    from types import SimpleNamespace
    from repro.core.queries import QueryTemplate
    return SimpleNamespace(template=QueryTemplate(
        "trip_distance", ("pickup_time", "fare"),
        ("trip_distance", "fare")))


def compile_for(engine, statement):
    from repro.service.sqlfront import compile_sql
    template = engine.template
    return compile_sql(statement, template.agg_attr,
                       template.predicate_attrs,
                       stat_attrs=template.stat_attrs)


def render_bound(value, spelling):
    """A float as SQL, infinities in one of the accepted spellings."""
    if math.isinf(value):
        return ("-" if value < 0 else "") + spelling
    return repr(value)


class TestStatementMemo:
    """``/sql`` binds through a per-server memo of compiled statements:
    a repeat is one dict probe, never a different answer."""

    @pytest.mark.parametrize("cache_enabled", [True, False],
                             ids=["cache-on", "cache-off"])
    def test_hot_pool_answers_like_fresh_compiles(self, ds,
                                                  cache_enabled):
        engine = build_sketched(ds)
        pool = [sql_for(q) for q in workload(ds)] + list(SKETCH_SQL)
        want = engine.query_many([compile_for(engine, s) for s in pool])
        with serve_background(engine, port=0,
                              cache_enabled=cache_enabled) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                rounds = [client.sql_many(pool) for _ in range(3)]
                stats = client.stats()["statements"]
        for k, got in enumerate(rounds):
            assert [r.details["cached"] for r in got] == \
                [cache_enabled and k > 0] * len(pool)
            for g, w in zip(got, want):
                for name in ANSWER_FIELDS:
                    a, b = getattr(g, name), getattr(w, name)
                    assert a == b or (a != a and b != b), (k, name)
        assert stats == {"hits": 2 * len(pool), "misses": len(pool),
                         "size": len(pool)}

    @settings(max_examples=150, deadline=None)
    @given(agg=st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX",
                                "VARIANCE", "STDDEV", "COUNT(*)",
                                "PERCENTILE", "TOPK"]),
           bounds=st.lists(st.one_of(st.none(), st.tuples(
               st.floats(allow_nan=False), st.floats(allow_nan=False))),
               min_size=2, max_size=2),
           spelling=st.sampled_from(["inf", "Infinity", "INF", "iNf"]))
    def test_memoized_query_equals_a_fresh_compile(self, agg, bounds,
                                                   spelling):
        from repro.service import AQPServer
        engine = template_engine()
        server = AQPServer(engine)
        if agg == "COUNT(*)":
            select = "COUNT(*)"
        elif agg == "PERCENTILE":
            select = "PERCENTILE(fare, 0.25)"
        elif agg == "TOPK":
            select = "TOPK(fare, 5)"
        else:
            select = f"{agg}(trip_distance)"
        where = [f"{col} BETWEEN {render_bound(min(b), spelling)} "
                 f"AND {render_bound(max(b), spelling)}"
                 for col, b in zip(("fare", "pickup_time"), bounds)
                 if b is not None]
        sql = f"SELECT {select} FROM t" + \
            (" WHERE " + " AND ".join(where) if where else "")
        fresh = compile_for(engine, sql)
        first = server.bind_sql(sql)
        again = server.bind_sql(sql)
        assert first == fresh and again == fresh
        assert again is first               # the repeat was a memo hit
        info = server.bind_sql.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("statement,fragment", [
        ("SELECT NOPE(x) FROM t", "unknown aggregate"),
        ("SELECT SUM(trip_distance) FROM t WHERE bogus BETWEEN 0 AND 1",
         "not a predicate attribute"),
        ("SELECT SUM(nope) FROM t", "not tracked"),
    ])
    def test_bad_statement_is_never_memoized(self, ds, statement,
                                             fragment):
        engine = build_single(ds)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                errors = []
                for _ in range(2):
                    with pytest.raises(ServiceError) as err:
                        client.sql(statement)
                    assert err.value.status == 400
                    errors.append(str(err.value))
                stats = client.stats()["statements"]
        assert errors[0] == errors[1]
        assert fragment in errors[0] and "position" in errors[0]
        assert stats == {"hits": 0, "misses": 2, "size": 0}

    def test_memo_is_bounded_by_cache_size_lru(self):
        from repro.service import AQPServer
        server = AQPServer(template_engine(), cache_size=2)
        a, b, c = (f"SELECT SUM(fare) FROM t WHERE fare >= {i}"
                   for i in range(3))
        server.bind_sql(a)
        server.bind_sql(b)
        server.bind_sql(a)                  # a is now the most recent
        server.bind_sql(c)                  # evicts b, the LRU entry
        info = server.bind_sql.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 2)
        server.bind_sql(a)
        assert server.bind_sql.cache_info().hits == 2
        server.bind_sql(b)                  # b was evicted: compiles
        assert server.bind_sql.cache_info().misses == 4

    def test_parse_span_counts_memo_hits(self, ds):
        engine = build_single(ds)
        stmt = sql_for(workload(ds, n=1)[0])
        other = "SELECT COUNT(*) FROM t"
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.sql(stmt)
                explained = client._json(
                    "POST", "/sql", {"sql": [stmt, other, stmt],
                                     "explain": True})["explain"]
                traces = client._json("GET", "/debug/traces")["traces"]
        assert explained["memo_hits"] == 2
        trace = [t for t in traces
                 if t["trace_id"] == explained["trace_id"]][0]
        parse = [s for s in trace["spans"] if s["name"] == "parse"]
        assert [s["tags"] for s in parse] == \
            [{"n_queries": 3, "memo_hits": 2}]


class HeldEngine:
    """The real engine behind a ``query_many`` that records each
    batch's size and blocks until the test opens ``gate``."""

    def __init__(self, engine):
        self._engine = engine
        self.gate = threading.Event()
        self.sizes = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query_many(self, queries, obs=None):
        self.sizes.append(len(queries))
        assert self.gate.wait(10), "the test never released the engine"
        return self._engine.query_many(queries, obs=obs)


class TestMicroBatching:
    def test_concurrent_requests_group_into_one_engine_batch(self, ds):
        """Group commit: while one engine call is in flight, every
        request that arrives parks, and they all leave as ONE batch
        when it lands.  The engine call is held on an event until all
        16 requests are admitted, so nothing here depends on timing."""
        engine = HeldEngine(build_single(ds))
        queries = workload(ds, n=32)

        def one(query):
            with ServiceClient(handle.host, handle.port) as client:
                return client.query(query)

        with serve_background(engine, port=0, cache_enabled=False,
                              max_batch=64,
                              max_linger_ms=10_000.0) as handle:
            batcher = handle.server.batcher
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(one, q) for q in queries[:16]]
                deadline = time.monotonic() + 10
                while sum(engine.sizes) + len(batcher._pending) < 16:
                    assert time.monotonic() < deadline, engine.sizes
                    time.sleep(0.001)
                engine.gate.set()
                results = [f.result(timeout=10) for f in futures]
            stats = batcher.stats()
        assert all(math.isfinite(r.estimate) for r in results)
        first, rest = engine.sizes      # whoever shared the first tick
        assert first >= 1 and rest == 16 - first
        assert stats["max_batch_size"] >= 8, stats
        assert stats["n_queries"] == 16
        assert (stats["n_flush_idle"], stats["n_flush_drain"]) == (1, 1)

    def test_batched_answers_equal_sequential(self, ds):
        engine = build_single(ds)
        queries = workload(ds, n=12)
        expected = engine.query_many(queries)
        with serve_background(engine, port=0, cache_enabled=False,
                              max_linger_ms=10.0) as handle:
            def one(i):
                with ServiceClient(handle.host, handle.port) as client:
                    return client.query(queries[i])
            with ThreadPoolExecutor(max_workers=12) as pool:
                results = list(pool.map(one, range(12)))
        for got, want in zip(results, expected):
            if math.isnan(want.estimate):
                assert math.isnan(got.estimate)
            else:
                assert got.estimate == want.estimate


class TestProtocolErrors:
    @pytest.fixture(scope="class")
    def served(self, ds):
        engine = build_single(ds)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                yield handle, client

    def test_unknown_route_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/query")
        assert err.value.status == 405

    def test_invalid_json_400(self, served):
        handle, _ = served
        import http.client
        conn = http.client.HTTPConnection(handle.host, handle.port,
                                          timeout=10)
        conn.request("POST", "/query", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "invalid JSON" in payload["error"]

    def test_bad_sql_400_with_position(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.sql("SELECT NOPE(x) FROM t")
        assert err.value.status == 400
        assert "unknown aggregate" in str(err.value)
        assert "position" in str(err.value)

    def test_off_template_sql_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.sql("SELECT SUM(trip_distance) FROM t "
                       "WHERE bogus BETWEEN 0 AND 1")
        assert "not a predicate attribute" in str(err.value)

    def test_malformed_query_payload_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client._json("POST", "/query", {"query": {"agg": "SUM"}})
        assert err.value.status == 400

    def test_off_template_agg_attr_400(self, served):
        _, client = served
        from repro.core.queries import AggFunc, Query, Rectangle
        bad = Query(AggFunc.SUM, "no_such_col", ("pickup_time",),
                    Rectangle((0.0,), (1.0,)))
        with pytest.raises(ServiceError) as err:
            client.query(bad)
        assert err.value.status == 400
        assert "not tracked" in str(err.value)

    def test_off_template_predicate_attrs_400(self, served):
        _, client = served
        from repro.core.queries import AggFunc, Query, Rectangle
        bad = Query(AggFunc.SUM, "trip_distance", ("bogus",),
                    Rectangle((0.0,), (1.0,)))
        with pytest.raises(ServiceError) as err:
            client.query(bad)
        assert err.value.status == 400
        assert "do not match" in str(err.value)

    def test_poisoned_batch_is_isolated_per_query(self):
        """An engine failure on a mixed batch must only fail the
        offending query, not its co-batched neighbours."""
        import asyncio
        from repro.service.batcher import MicroBatcher

        def execute(queries):
            if any(q == "bad" for q in queries):
                if len(queries) > 1:
                    raise ValueError("poisoned batch")
                raise ValueError("bad query")
            return [f"ok:{q}" for q in queries]

        async def scenario():
            batcher = MicroBatcher(execute, max_batch=8,
                                   max_linger_ms=5.0)
            tasks = [asyncio.ensure_future(batcher.submit(q))
                     for q in ("a", "bad", "b", "c")]
            results = await asyncio.gather(*tasks,
                                           return_exceptions=True)
            await batcher.close()
            return results, batcher.stats()

        results, stats = asyncio.run(scenario())
        assert results[0] == "ok:a"
        assert isinstance(results[1], ValueError)
        assert results[2] == "ok:b"
        assert results[3] == "ok:c"
        assert stats["n_isolated"] == 3     # good ones re-ran solo

    def test_bad_content_length_gets_a_400_response(self, served):
        handle, _ = served
        import socket
        with socket.create_connection((handle.host, handle.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\n"
                         b"Content-Length: abc\r\n\r\n")
            response = sock.recv(4096).decode()
        assert response.startswith("HTTP/1.1 400")
        assert "Content-Length" in response

    def test_oversized_header_gets_a_400_response(self, served):
        handle, _ = served
        import socket
        with socket.create_connection((handle.host, handle.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\n"
                         b"X-Big: " + b"x" * 70_000 + b"\r\n\r\n")
            response = sock.recv(4096).decode()
        assert response.startswith("HTTP/1.1 400")
        assert "too long" in response

    def test_header_flood_gets_a_431_response(self, served):
        """Endless small headers must not grow server memory without
        bound: the total-header cap answers 431 and closes."""
        handle, _ = served
        import socket
        flood = b"".join(b"x-%d: a\r\n" % i for i in range(9_000))
        with socket.create_connection((handle.host, handle.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\n" + flood + b"\r\n")
            response = sock.recv(4096).decode()
        assert response.startswith("HTTP/1.1 431")

    def test_non_finite_rows_rejected(self, served):
        """A NaN row would poison SUM/AVG deltas for every client."""
        _, client = served
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ServiceError) as err:
                client._json("POST", "/insert", {
                    "rows": [[0.5, bad, 1.0, 1.0, 1.0, 1.0]]})
            assert err.value.status == 400
            assert "finite" in str(err.value)

    def test_dead_tid_delete_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.delete_many([10 ** 9])
        assert err.value.status == 400

    def test_delete_takes_only_json_integer_tids(self, served):
        """A string is not iterated into tids, a float is not truncated
        and a bool is not read as 0 / 1: each is a 400 and nothing is
        deleted."""
        handle, client = served
        before = len(handle.server.engine.table)
        for bad in ("12", [7.9], [True], ["3"], {"1": 2}):
            with pytest.raises(ServiceError) as err:
                client._json("POST", "/delete", {"tids": bad})
            assert err.value.status == 400, bad
        assert len(handle.server.engine.table) == before

    @pytest.mark.parametrize("case", ["bound", "param", "row", "tid"])
    def test_numbers_no_engine_holds_400(self, served, ds, case):
        """A 401-digit JSON integer as a rectangle bound, a ``param`` or
        a row value overflows a float, and a tid of 2**63 an int64:
        each is a 400 with nothing applied, and the server stays up."""
        handle, client = served
        huge = 10 ** 400
        query = query_to_dict(workload(ds, n=1)[0])
        if case == "bound":
            route, body = "/query", {"query": dict(query, hi=[huge])}
        elif case == "param":
            route, body = "/query", {"query": dict(query, param=huge)}
        elif case == "row":
            route, body = "/insert", {"rows": [[0.5, huge, 1.0, 1.0,
                                                1.0, 1.0]]}
        else:
            route, body = "/delete", {"tids": [2 ** 63]}
        epoch = handle.server.engine.data_epoch
        with pytest.raises(ServiceError) as err:
            client._json("POST", route, body)
        assert err.value.status == 400, str(err.value)
        assert handle.server.engine.data_epoch == epoch
        assert client.health()

    def test_explain_takes_only_a_json_boolean(self, served, ds):
        """``"explain": "no"`` is a 400, not a traced EXPLAIN report."""
        _, client = served
        stmt = sql_for(workload(ds, n=1)[0])
        for bad in ("no", 0, 1, None):
            with pytest.raises(ServiceError) as err:
                client._json("POST", "/sql", {"sql": stmt, "explain": bad})
            assert err.value.status == 400, bad
        assert "explain" not in client._json(
            "POST", "/sql", {"sql": stmt, "explain": False})

    def test_bad_requests_counted(self, served):
        handle, client = served
        before = client.stats()["n_bad_requests"]
        with pytest.raises(ServiceError):
            client._json("GET", "/nope")
        assert client.stats()["n_bad_requests"] == before + 1


class TestObservability:
    def test_stats_shape(self, ds):
        engine = build_sharded(ds)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.query_many(workload(ds, n=4))
                stats = client.stats()
        assert stats["engine"]["rows"] == N_SEED
        assert stats["engine"]["n_shards"] == 3
        assert sum(stats["engine"]["shard_sizes"]) == N_SEED
        assert stats["engine"]["data_epoch"] > 0
        assert stats["batcher"]["n_queries"] == 4
        assert stats["cache"]["enabled"]
        assert stats["requests"]["/query"] == 1
        assert stats["uptime_seconds"] >= 0

    def test_metrics_exposition(self, ds):
        engine = build_single(ds)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.query(workload(ds, n=1)[0])
                text = client.metrics()
        assert f"janus_service_engine_rows {N_SEED}" in text
        assert "janus_service_batches_total 1" in text
        assert 'janus_service_requests_total{route="/query"} 1' in text

    def test_sharded_routing_stats_and_metrics(self, ds):
        """A sharded engine reports router counters on both surfaces."""
        engine = build_sharded(ds)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.query_many(workload(ds, n=7))
                stats = client.stats()
                text = client.metrics()
        routing = stats["engine"]["routing"]
        assert routing["n_queries"] == 7
        assert routing["n_routed_queries"] == 7
        assert sum(routing["shards_touched_hist"]) == 7
        assert 0.0 <= routing["mean_shards_touched"] <= 3.0
        assert "janus_routing_routed_queries_total 7" in text
        assert 'janus_routing_shards_touched_total{shards="' in text
        assert "janus_service_routed_queries_total" not in text

    def test_restored_shards_report_on_the_served_metrics_page(
            self, ds, tmp_path):
        """``load_sharded`` engines register on the coordinator's
        registry like freshly built ones, so a ``--load`` deployment's
        ``/metrics`` carries the per-shard engine series."""
        from repro.core.persist import load_sharded, save_sharded
        from repro.obs import parse_exposition
        built = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=2,
            config=JanusConfig(k=8, sample_rate=0.04, seed=0))
        built.insert_many(ds.data[:N_SEED])
        built.initialize()
        save_sharded(built, tmp_path / "snap")
        built.close()
        engine = load_sharded(tmp_path / "snap")
        assert all(shard.metrics is engine.metrics
                   for shard in engine.shards)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                # default check_every=256 per shard: 1500 rows take
                # every shard past at least one trigger check
                client.insert_many(ds.data[N_SEED:N_SEED + 1500])
                families = parse_exposition(client.metrics())
        engine.close()
        checks = families["janus_engine_trigger_checks_total"]
        per_shard = {}
        for _, labels, value in checks["samples"]:
            per_shard[labels["shard"]] = \
                per_shard.get(labels["shard"], 0) + value
        assert set(per_shard) == {"0", "1"}
        assert per_shard["0"] >= 1
        stalls = families["janus_engine_ingest_stall_seconds"]
        assert {"shard": "0"} in [s[1] for s in stalls["samples"]
                                  if s[0].endswith("_count")]

    @pytest.mark.parametrize("pad", [0, 300 * 1024],
                             ids=["inline-decode", "executor-decode"])
    def test_request_histogram_includes_body_decode(self, ds,
                                                    monkeypatch, pad):
        """The per-route clock starts before the JSON body is decoded
        (and before a large body's executor hop), so a request whose
        decode is slow is charged for it."""
        from repro.service.server import AQPServer
        decode = AQPServer._json_body

        def slow(body):
            time.sleep(0.2)
            return decode(body)

        monkeypatch.setattr(AQPServer, "_json_body", staticmethod(slow))
        engine = build_single(ds)
        body = {"query": _qdict(workload(ds, n=1)[0]), "pad": "x" * pad}
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client._json("POST", "/query", body)
            hist = handle.server.metrics.histogram(
                "janus_service_request_seconds", route="/query")
            assert hist.count == 1
            assert hist.sum >= 0.2

    def test_single_engine_has_no_routing_section(self, ds):
        engine = build_single(ds)
        with serve_background(engine, port=0) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                stats = client.stats()
                text = client.metrics()
        assert "routing" not in stats["engine"]
        assert "janus_routing_routed_queries_total" not in text


class _SlowStatsEngine:
    """Just enough engine for ``/stats``; ``pool_size`` blocks like a
    fleet's does while a worker is busy."""

    agg_attr = "y"
    predicate_attrs = ("x",)
    data_epoch = 0
    table = ()

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    @property
    def pool_size(self):
        self.entered.set()
        assert self.release.wait(timeout=20)
        return 7

    def query_many(self, queries, obs=None):
        return []


class TestStatsOffTheLoop:
    def test_health_answers_while_stats_waits_on_the_engine(self):
        """A blocking engine probe behind ``/stats`` runs in the
        executor: it must not freeze every other connection."""
        engine = _SlowStatsEngine()
        with serve_background(engine, port=0) as handle:
            with ThreadPoolExecutor(max_workers=1) as pool, \
                    ServiceClient(handle.host, handle.port) as slow, \
                    ServiceClient(handle.host, handle.port,
                                  timeout=5.0) as fast:
                pending = pool.submit(slow.stats)
                try:
                    assert engine.entered.wait(timeout=10)
                    assert fast.health()         # loop still serving
                    assert "janus_service_uptime_seconds" in \
                        fast.metrics()
                    assert not pending.done()
                finally:
                    engine.release.set()
                assert pending.result(timeout=10)["engine"][
                    "pool_size"] == 7


class TestLifecycle:
    def test_idle_connections_are_closed_after_timeout(self, ds,
                                                       monkeypatch):
        """A connection that never sends a request must not park a
        handler task forever."""
        import socket
        import time
        from repro.service import server
        monkeypatch.setattr(server, "IDLE_TIMEOUT", 0.3)
        engine = build_single(ds)
        with serve_background(engine, port=0) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10) as sock:
                deadline = time.time() + 10
                while time.time() < deadline:
                    if sock.recv(64) == b"":    # server closed it
                        break
                else:
                    pytest.fail("idle connection was never closed")
            deadline = time.time() + 5
            while handle.server._conn_tasks and time.time() < deadline:
                time.sleep(0.02)
            assert not handle.server._conn_tasks

    def test_stop_with_connected_idle_client_does_not_hang(self, ds):
        """A parked keep-alive connection must not stall shutdown
        (Python 3.12.1+ wait_closed blocks until transports close)."""
        import asyncio
        from repro.service import AQPServer
        engine = build_single(ds)

        async def scenario():
            server = AQPServer(engine, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /health HTTP/1.1\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"}")        # response arrived,
            await asyncio.wait_for(server.stop(), timeout=10)
            writer.close()                      # connection still open
            return True

        assert asyncio.run(scenario())

    def test_server_restarts_after_stop(self, ds):
        """stop() then start() must yield a fully working server (the
        engine executor is recreated, not reused after shutdown)."""
        import asyncio
        from repro.service import AQPServer
        engine = build_single(ds)
        query = workload(ds, n=1)[0]
        expected = engine.query(query).estimate

        async def scenario():
            server = AQPServer(engine, port=0, cache_enabled=False)
            estimates = []
            for _ in range(2):
                host, port = await server.start()
                loop = asyncio.get_running_loop()
                def call():
                    with ServiceClient(host, port) as client:
                        return client.query(query).estimate
                estimates.append(
                    await loop.run_in_executor(None, call))
                await server.stop()
            return estimates

        estimates = asyncio.run(scenario())
        assert estimates == [expected, expected]


class TestCLI:
    def test_parser_defaults_and_engine_build(self):
        from repro.service.__main__ import build_engine, build_parser
        parser = build_parser()
        args = parser.parse_args(["--rows", "2000", "--shards", "2",
                                  "--k", "8", "--port", "0"])
        assert args.host == "127.0.0.1"
        assert args.max_batch == 64 and not args.no_cache
        engine = build_engine(args)
        assert engine.n_shards == 2
        assert len(engine.table) == 2000
        engine.close()

    def test_warm_start_flag(self, ds, tmp_path):
        from repro.core.persist import save_sharded
        from repro.service.__main__ import build_engine, build_parser
        engine = build_sharded(ds, n_shards=2)
        save_sharded(engine, tmp_path / "snap")
        engine.close()
        args = build_parser().parse_args(
            ["--load", str(tmp_path / "snap")])
        restored = build_engine(args)
        assert restored.n_shards == 2
        assert len(restored.table) == N_SEED
        restored.close()


def _qdict(query: Query) -> dict:
    from repro.broker.requests import query_to_dict
    return query_to_dict(query)
