"""Unit tests for the observability primitives (repro.obs).

Covers the metrics registry (catalog enforcement, instrument reuse,
exact window percentiles), the Prometheus text exposition and its
validating parser (the exposition-correctness satellite: janus_ names,
HELP/TYPE comments, escaped label values, histogram series), the
deterministic trace sampler and span-tree plumbing, and the one-line
JSON event logger.
"""

import io
import json
import threading

import pytest

from repro.obs import (CATALOG, Counter, Gauge, Histogram,
                       MetricsRegistry, TraceContext, Tracer,
                       decode_spans, encode_spans, log_event,
                       maybe_span, parse_exposition, render_exposition)

# ---------------------------------------------------------------------- #
# registry + instruments
# ---------------------------------------------------------------------- #


def test_catalog_names_are_well_formed():
    for name, (kind, help_text) in CATALOG.items():
        assert name.startswith("janus_")
        assert kind in ("counter", "gauge", "histogram")
        assert help_text.strip()


def test_registry_rejects_uncatalogued_names():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="CATALOG"):
        reg.counter("janus_service_made_up_total")
    with pytest.raises(ValueError, match="catalogued as"):
        # Catalogued, but as a counter.
        reg.gauge("janus_service_requests_total")
    with pytest.raises(ValueError, match="label"):
        reg.counter("janus_service_requests_total", **{"bad-key": "x"})


def test_registry_returns_same_instrument_for_same_key():
    reg = MetricsRegistry()
    a = reg.counter("janus_service_requests_total", route="/query")
    b = reg.counter("janus_service_requests_total", route="/query")
    other = reg.counter("janus_service_requests_total", route="/sql")
    assert a is b
    assert a is not other
    a.inc()
    a.inc(2)
    assert b.value == 3
    assert other.value == 0


def test_gauge_sets_and_counter_only_counts():
    g = Gauge()
    g.set(4.5)
    g.inc(0.5)
    assert g.value == 5.0
    assert not hasattr(Counter(), "set")    # counters are monotone


def test_histogram_exact_percentiles_over_window():
    h = Histogram(buckets=(0.1, 1.0), window=100)
    for v in range(1, 101):          # 0.01 .. 1.00
        h.observe(v / 100.0)
    assert h.count == 100
    assert h.percentile(0.5) == pytest.approx(0.51)
    assert h.percentile(0.99) == pytest.approx(1.0)
    assert h.percentile(0.0) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        h.percentile(1.5)


def test_histogram_window_is_bounded():
    h = Histogram(window=8)
    for _ in range(100):
        h.observe(100.0)
    h.observe(1.0)
    # The window forgot the early observations; count/sum did not.
    assert h.count == 101
    assert h.percentile(0.0) == 1.0


def test_empty_histogram_percentile_is_zero():
    assert Histogram().percentile(0.99) == 0.0


# ---------------------------------------------------------------------- #
# exposition: render -> parse round trip
# ---------------------------------------------------------------------- #


def test_exposition_round_trip_with_labels_and_histograms():
    reg = MetricsRegistry()
    reg.counter("janus_service_requests_total", route="/query").inc(3)
    reg.counter("janus_service_requests_total", route="/sql").inc()
    reg.gauge("janus_service_engine_rows").set(6000)
    hist = reg.histogram("janus_engine_reoptimize_seconds", shard="0")
    hist.observe(0.002)
    hist.observe(0.2)
    text = render_exposition(reg)
    families = parse_exposition(text)

    req = families["janus_service_requests_total"]
    assert req["type"] == "counter"
    assert req["help"] == CATALOG["janus_service_requests_total"][1]
    by_route = {s[1]["route"]: s[2] for s in req["samples"]}
    assert by_route == {"/query": 3.0, "/sql": 1.0}

    assert families["janus_service_engine_rows"]["samples"] == [
        ("janus_service_engine_rows", {}, 6000.0)]

    reopt = families["janus_engine_reoptimize_seconds"]
    assert reopt["type"] == "histogram"
    names = {s[0] for s in reopt["samples"]}
    assert names == {"janus_engine_reoptimize_seconds_bucket",
                     "janus_engine_reoptimize_seconds_sum",
                     "janus_engine_reoptimize_seconds_count"}
    count = [s for s in reopt["samples"]
             if s[0].endswith("_count")][0]
    assert count[1] == {"shard": "0"} and count[2] == 2.0
    inf = [s for s in reopt["samples"]
           if s[1].get("le") == "+Inf"][0]
    assert inf[2] == 2.0
    # Cumulative buckets are monotone.
    buckets = [s[2] for s in reopt["samples"]
               if s[0].endswith("_bucket")]
    assert buckets == sorted(buckets)

    # Every family on the page is a janus_ name with HELP and TYPE.
    for name, family in families.items():
        assert name.startswith("janus_")
        assert family["type"] is not None
        assert family["help"] is not None


def test_exposition_merges_registries_and_sorts_families():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("janus_service_requests_total", route="/query").inc()
    b.histogram("janus_engine_reoptimize_seconds", shard="1")
    text = render_exposition(a, b)
    families = parse_exposition(text)
    assert set(families) == {"janus_service_requests_total",
                             "janus_engine_reoptimize_seconds"}
    order = [line.split()[2] for line in text.splitlines()
             if line.startswith("# HELP")]
    assert order == sorted(order)


def test_exposition_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("janus_service_requests_total",
                route='/que"ry\\x\nz').inc()
    text = render_exposition(reg)
    assert r'route="/que\"ry\\x\nz"' in text
    families = parse_exposition(text)
    (name, labels, value), = \
        families["janus_service_requests_total"]["samples"]
    assert labels == {"route": '/que"ry\\x\nz'}
    assert value == 1.0


def test_exposition_integral_values_render_without_dot_zero():
    reg = MetricsRegistry()
    reg.counter("janus_service_batches_total").inc()
    assert "janus_service_batches_total 1\n" in render_exposition(reg)


@pytest.mark.parametrize("bad", [
    "no_type_metric 1",                       # sample without # TYPE
    "# TYPE x bogus_kind",                    # invalid type
    "# BOGUS x y",                            # unknown comment
    "# TYPE m counter\nm{open=\"x} 1",        # malformed labels
    "# TYPE m counter\nm not_a_number",       # bad value
    "# TYPE m counter\nm 1\n# HELP m late",   # HELP after samples
])
def test_parser_rejects_malformed_pages(bad):
    with pytest.raises(ValueError):
        parse_exposition(bad)


# ---------------------------------------------------------------------- #
# tracer
# ---------------------------------------------------------------------- #


def test_sampler_takes_every_nth_request():
    tracer = Tracer(sample_every=4)
    picks = [tracer.sample() is not None for _ in range(12)]
    assert picks == [False, False, False, True] * 3


def test_sampler_disabled_unless_forced():
    tracer = Tracer(sample_every=0)
    assert all(tracer.sample() is None for _ in range(20))
    assert tracer.sample(force=True) is not None


def test_sampler_honours_supplied_trace_id():
    tracer = Tracer(sample_every=0)
    ctx = tracer.sample(force=True, trace_id=0xABC)
    assert ctx.trace_id == 0xABC
    minted = tracer.sample(force=True)
    assert minted.trace_id != 0


def test_trace_ring_is_bounded_and_snapshot_is_stable():
    tracer = Tracer(sample_every=0, capacity=4)
    for i in range(10):
        tracer.sample(force=True, trace_id=i + 1).finish(seq=i)
    traces = tracer.snapshot()
    assert len(traces) == 4
    assert [t["seq"] for t in traces] == [6, 7, 8, 9]


def test_span_nesting_and_explicit_parent():
    ctx = TraceContext(1)
    with ctx.span("outer") as outer:
        with ctx.span("inner"):
            pass
    ctx.add_span("queued", 42, parent=outer["id"], kind="wait")
    trace = ctx.finish(route="/query")
    spans = {s["name"]: s for s in trace["spans"]}
    assert spans["outer"]["parent"] is None
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["queued"]["parent"] == spans["outer"]["id"]
    assert spans["queued"]["dur_us"] == 42
    assert trace["route"] == "/query"
    assert trace["trace_id"] == "1"
    assert trace["n_spans"] == 3
    with pytest.raises(RuntimeError):
        ctx.finish()


def test_foreign_spans_graft_under_default_parent():
    ctx = TraceContext(7)
    with ctx.span("shard_execute") as parent:
        blob = encode_spans([
            {"id": 1 << 40, "parent": None, "name": "worker_execute",
             "start_us": 0, "dur_us": 5, "tags": {}},
            {"id": (1 << 40) + 1, "parent": 1 << 40, "name": "inner",
             "start_us": 1, "dur_us": 2, "tags": {}},
        ])
        ctx.add_foreign_spans(decode_spans(blob), parent["id"])
    trace = ctx.finish()
    spans = {s["name"]: s for s in trace["spans"]}
    assert spans["worker_execute"]["parent"] == \
        spans["shard_execute"]["id"]
    assert spans["inner"]["parent"] == spans["worker_execute"]["id"]
    # Connected forest: every non-root parent id exists.
    ids = {s["id"] for s in trace["spans"]}
    for span in trace["spans"]:
        assert span["parent"] is None or span["parent"] in ids


def test_cross_thread_spans_do_not_inherit_foreign_stack():
    ctx = TraceContext(9)
    seen = []

    def work():
        # No implicit parent on a fresh thread: the span is a root
        # unless the caller passes parent= explicitly.
        with ctx.span("child") as span:
            seen.append(span)

    with ctx.span("root"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
    assert seen[0]["parent"] is None


def test_maybe_span_is_noop_without_context():
    with maybe_span(None, "anything") as span:
        assert span is None
    ctx = TraceContext(3)
    with maybe_span(ctx, "real", shard=2) as span:
        assert span["tags"] == {"shard": 2}
    assert ctx.finish()["n_spans"] == 1


def test_decode_spans_rejects_non_list():
    with pytest.raises(ValueError):
        decode_spans(b'{"not": "a list"}')


# ---------------------------------------------------------------------- #
# structured log events
# ---------------------------------------------------------------------- #


def test_log_event_emits_one_json_line():
    stream = io.StringIO()
    log_event(stream, "slow_query", route="/sql", duration_ms=12.5,
              trace_id=None)
    line, = stream.getvalue().splitlines()
    event = json.loads(line)
    assert event["event"] == "slow_query"
    assert event["route"] == "/sql"
    assert event["duration_ms"] == 12.5
    assert event["trace_id"] is None
    assert isinstance(event["ts"], float)


# ---------------------------------------------------------------------- #
# write path: trigger checks and candidate evaluations
# ---------------------------------------------------------------------- #


def _drifting_engine(**kwargs):
    """A 1-D engine on 6000 taxi rows, and 40 batches to stream into it."""
    from repro.core.janus import JanusAQP, JanusConfig
    from repro.core.table import Table
    from repro.datasets.synthetic import nyc_taxi

    ds = nyc_taxi(n=9000, seed=1)
    table = Table(ds.schema)
    table.insert_many(ds.data[:6000])
    config = JanusConfig(k=48, sample_rate=0.03, seed=2,
                         repartition_every=kwargs.pop("repartition_every",
                                                      None))
    engine = JanusAQP(table, "fare", ("pickup_time",), config=config,
                      **kwargs)
    engine.initialize()
    return engine, [ds.data[6000 + 72 * b:6000 + 72 * (b + 1)]
                    for b in range(40)]


def test_engine_emits_trigger_check_and_candidate_eval_families():
    reg = MetricsRegistry()
    engine, batches = _drifting_engine(
        repartition_every=2500, metrics=reg, metrics_labels={"shard": "3"})
    for rows in batches:
        engine.insert_many(rows)

    families = parse_exposition(render_exposition(reg))
    checks = families["janus_engine_trigger_checks_total"]
    assert checks["type"] == "counter"
    by_outcome = {s[1]["outcome"]: s[2] for s in checks["samples"]}
    assert all(s[1]["shard"] == "3" for s in checks["samples"])
    assert set(by_outcome) == {"none", "rejected", "committed", "forced",
                               "error"}
    state = engine.trigger.state
    assert by_outcome["forced"] == state.n_forced == 1
    assert by_outcome["rejected"] > 0 and by_outcome["committed"] > 0
    assert by_outcome["error"] == 0
    assert by_outcome["rejected"] + by_outcome["committed"] == \
        state.n_candidates
    assert sum(by_outcome.values()) == state.n_checks + state.n_forced
    assert by_outcome["committed"] + by_outcome["forced"] == \
        engine.n_repartitions

    evals = families["janus_engine_candidate_eval_seconds"]
    assert evals["type"] == "histogram"
    counts = {s[1]["stage"]: s[2] for s in evals["samples"]
              if s[0].endswith("_count")}
    assert all(s[1]["shard"] == "3" for s in evals["samples"])
    assert counts == dict.fromkeys(("m_r", "partition", "commit_test"),
                                   state.n_candidates)


def test_failed_candidate_evaluation_is_an_error_not_a_rejection(
        monkeypatch, capsys):
    engine, batches = _drifting_engine()

    def broken(*args):
        raise RuntimeError("cannot partition: empty sample pool")
    monkeypatch.setattr(engine, "_partition", broken)
    for rows in batches:        # every write still succeeds
        engine.insert_many(rows)
    assert len(engine.table) == 6000 + 72 * 40
    assert engine.n_repartitions == 0

    families = parse_exposition(render_exposition(engine.metrics))
    by_outcome = {s[1]["outcome"]: s[2] for s in
                  families["janus_engine_trigger_checks_total"]["samples"]}
    n_candidates = engine.trigger.state.n_candidates
    assert by_outcome["error"] == n_candidates > 0
    assert by_outcome["rejected"] == by_outcome["committed"] == 0
    events = [json.loads(line)
              for line in capsys.readouterr().err.splitlines()]
    assert len(events) == n_candidates
    assert all(e["event"] == "candidate_eval_error" and
               "empty sample pool" in e["error"] for e in events)


# ---------------------------------------------------------------------- #
# micro-batcher: why a batch left, how long its members waited
# ---------------------------------------------------------------------- #


def test_batcher_emits_idle_and_drain_flush_and_wait_families():
    import asyncio

    from repro.service.batcher import MicroBatcher

    reg = MetricsRegistry()
    busy, release = threading.Event(), threading.Event()

    def execute(queries):
        busy.set()
        assert release.wait(5.0)
        return list(queries)

    async def scenario():
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher(execute, max_linger_ms=10_000.0,
                               metrics=reg)
        first = asyncio.ensure_future(batcher.submit("a"))   # idle
        assert await loop.run_in_executor(None, busy.wait, 5.0)
        behind = asyncio.ensure_future(batcher.submit("b"))  # drain
        await asyncio.sleep(0)
        release.set()
        await asyncio.wait_for(asyncio.gather(first, behind), 5.0)
        await batcher.close()

    asyncio.run(scenario())
    families = parse_exposition(render_exposition(reg))
    for name in ("janus_service_batch_flush_idle_total",
                 "janus_service_batch_flush_drain_total"):
        assert families[name]["type"] == "counter"
        assert [s[2] for s in families[name]["samples"]] == [1]
    waits = families["janus_service_batch_wait_seconds"]
    assert waits["type"] == "histogram"
    count = [s for s in waits["samples"] if s[0].endswith("_count")][0]
    assert count[2] == 2
