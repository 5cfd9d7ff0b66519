"""Asyncio HTTP/JSON AQP server fronting a synopsis engine.

:class:`AQPServer` is the client-facing tier of the system: a
stdlib-only HTTP/1.1 server (``asyncio`` streams plus a minimal codec -
request line, headers, ``Content-Length`` body, keep-alive) that routes
requests into the batched engine lane built by PRs 1-4.  One server
fronts one engine - a :class:`~repro.core.janus.JanusAQP`, a
:class:`~repro.core.sharded.ShardedJanusAQP` fleet, or anything else
exposing ``insert_many`` / ``delete_many`` / ``query_many`` /
``data_epoch`` and its :class:`~repro.core.queries.QueryTemplate` as
``template``.

Request flow for reads::

    /sql ──► statement memo ───────┐   hit: the frozen Query
              │ miss (or error)    │   compiled for the same text
              ▼                    │
             sqlfront.compile_sql ─┤   errors are never memoized
    /query ── query_from_dict ─────┤
                                   ▼
                        engine.template.problem(query)?  -> 400
                                   ▼
                        ResultCache.lookup(query, engine.data_epoch)
                          │ hit: answered with zero synopsis traffic
                          ▼ miss
                        MicroBatcher.submit_many
                          │ coalesces every in-flight request
                          ▼
                        engine.query_many(batch)   (executor thread)
                          │ epoch unchanged across the call?
                          ▼
                        ResultCache.store + respond

Writes (``/insert`` / ``/delete``) run straight to the engine's batch
API in the executor and bump ``data_epoch``, which structurally
invalidates every cached answer.  ``/stats`` and ``/metrics`` expose
engine, batcher and cache counters (JSON and Prometheus text form);
the text exposition is rendered from the shared
:class:`~repro.obs.metrics.MetricsRegistry` (one consistent
``janus_*`` namespace across service, engine and fleet registries).

Observability: a :class:`~repro.obs.trace.Tracer` samples 1-in-N
requests (or every request carrying an ``X-Janus-Trace`` header, or
``"explain": true``); a sampled read collects spans across parse,
admission, cache lookup, routing plan, per-shard execute and merge,
and the completed trace lands in the ring served by
``GET /debug/traces``.  Traced reads bypass the micro-batcher (their
admission span measures the executor queue wait instead) - answers
are bit-identical either way because batched == sequential is pinned
by the engine.  ``slow_query_ms`` turns reads over the threshold into
one-line JSON log events.

JSON payloads may carry ``Infinity``/``NaN`` literals (Python's
``json`` emits and parses them); rectangle bounds are typically
infinite on unconstrained dimensions.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..broker.requests import TOPK_KEY, query_from_dict, result_to_dict
from ..core.queries import AggFamily, AggFunc, Query, QueryResult
from ..obs.logs import log_event
from ..obs.metrics import MetricsRegistry, render_exposition
from ..obs.trace import TRACE_CAPACITY, TraceContext, Tracer
from ..sketch.registry import SKETCH_KEY, sketch_from_bytes
from .batcher import MicroBatcher
from .cache import ResultCache
from .fleet import FleetUnavailableError
from .sqlfront import compile_sql

__all__ = ["AQPServer", "ServiceHandle", "serve_background"]

_MAX_BODY = 64 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024       # total across one request's headers
#: Threads executing engine calls; the engine's own locks serialize
#: what must be serialized.
EXECUTOR_WORKERS = 4
#: Seconds a connection may sit between requests before the server
#: closes it (bounds slowloris-style fd exhaustion).
IDLE_TIMEOUT = 120.0


class _HTTPError(Exception):
    """Maps to an error response without tearing the connection down."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error",
                503: "Service Unavailable"}


def _bind_sql(engine, sql: str) -> Query:
    """Compile one statement against the engine's (fixed) template."""
    template = engine.template
    return compile_sql(sql, template.agg_attr, template.predicate_attrs,
                       stat_attrs=template.stat_attrs)


class AQPServer:
    """HTTP/JSON front-end over one synopsis engine.

    Parameters
    ----------
    engine:
        The synopsis to serve.  Must expose ``insert_many`` /
        ``delete_many`` / ``query_many``, a monotone ``data_epoch``,
        and the template surface (``agg_attr``, ``predicate_attrs``)
        used to bind SQL statements.
    host, port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    max_batch, max_linger_ms:
        Micro-batching knobs (see :class:`~repro.service.batcher.
        MicroBatcher`).
    cache_size, cache_enabled:
        Per-template LRU capacity of the epoch-tagged result cache;
        disabling it makes served answers bit-identical to in-process
        ``query_many`` (the end-to-end test's mode).  ``cache_size``
        also bounds the ``/sql`` statement memo (:attr:`bind_sql`),
        which stays on either way: a memoized ``Query`` equals a
        fresh compile.
    trace_sample:
        Trace 1-in-``trace_sample`` read requests (0 disables; forced
        traces always run); ``/debug/traces`` keeps the last
        :data:`~repro.obs.trace.TRACE_CAPACITY` completed traces.
    slow_query_ms:
        When set, any ``/query`` / ``/sql`` request slower than this
        many milliseconds is counted and logged as a structured
        one-line JSON event.
    log_stream:
        Destination for structured log events (default: stderr).
    """

    def __init__(self, engine, host: str = "127.0.0.1", port: int = 0,
                 max_batch: int = 64, max_linger_ms: float = 2.0,
                 cache_size: int = 256, cache_enabled: bool = True,
                 trace_sample: int = 64,
                 slow_query_ms: Optional[float] = None,
                 log_stream=None) -> None:
        self.engine = engine
        self._host = host
        self._port = port
        self._max_batch = max_batch
        self._max_linger_ms = max_linger_ms
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(sample_every=trace_sample)
        self.slow_query_ms = slow_query_ms
        self._log_stream = log_stream
        self.cache = ResultCache(per_template=cache_size,
                                 enabled=cache_enabled,
                                 metrics=self.metrics)
        #: ``/sql`` text -> its bound :class:`Query`, so a repeated
        #: statement costs one dict probe instead of the SQL front
        #: end.  ``lru_cache`` keeps nothing for a call that raises:
        #: every bad statement re-compiles to the same positioned 400.
        self.bind_sql = lru_cache(maxsize=cache_size)(
            partial(_bind_sql, engine))
        self._executor: Optional[ThreadPoolExecutor] = \
            ThreadPoolExecutor(max_workers=EXECUTOR_WORKERS,
                               thread_name_prefix="janus-service")
        self.batcher: Optional[MicroBatcher] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._started_at = 0.0
        self._route_counters: Dict[str, object] = {}
        self._route_hists: Dict[str, object] = {}
        self._c_bad = self.metrics.counter(
            "janus_service_bad_requests_total")
        self._c_slow = self.metrics.counter(
            "janus_service_slow_queries_total")
        self._c_traces = self.metrics.counter(
            "janus_service_traces_total")
        self._c_explain = self.metrics.counter(
            "janus_service_explain_requests_total")
        self._g_uptime = self.metrics.gauge(
            "janus_service_uptime_seconds")
        self._g_rows = self.metrics.gauge("janus_service_engine_rows")
        self._g_epoch = self.metrics.gauge(
            "janus_service_engine_data_epoch")
        self._routes = {
            ("GET", "/health"): self._handle_health,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/debug/traces"): self._handle_traces,
            ("POST", "/query"): partial(self._handle_read, "/query"),
            ("POST", "/sql"): partial(self._handle_read, "/sql"),
            ("POST", "/insert"): self._handle_insert,
            ("POST", "/delete"): self._handle_delete,
        }
        self._known_paths = frozenset(p for _, p in self._routes)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0)."""
        return self._port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``.

        A stopped server can be started again (the engine executor is
        recreated; a port of 0 binds a fresh ephemeral port).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._executor is None:      # restarted after stop()
            self._executor = ThreadPoolExecutor(
                max_workers=EXECUTOR_WORKERS,
                thread_name_prefix="janus-service")
        self.batcher = MicroBatcher(
            self._engine_execute, max_batch=self._max_batch,
            max_linger_ms=self._max_linger_ms, executor=self._executor,
            metrics=self.metrics)
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        return self._host, self._port

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, release threads.

        Connection tasks wind down *before* the batcher closes, so a
        keep-alive request racing the shutdown is cut off at the
        connection instead of surfacing a spurious 500 from a
        closed batcher.
        """
        if self._server is None:
            return
        self._server.close()
        # Cancel connection handlers BEFORE wait_closed(): on Python
        # 3.12.1+ wait_closed blocks until every connection transport
        # is gone, so an idle keep-alive client parked in readline()
        # would hang the shutdown forever if cancelled after.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        if self.batcher is not None:
            await self.batcher.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI entry point's main loop)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------ #
    # engine lane
    # ------------------------------------------------------------------ #
    def _engine_execute(self, queries: List[Query],
                        ctx: Optional[TraceContext] = None
                        ) -> List[QueryResult]:
        """One micro-batch through the engine (runs in the executor).

        The epoch is read on both sides of the call: results are
        admitted to the cache only when no write interleaved, keyed by
        the epoch they provably belong to.  ``ctx`` (traced requests
        only) threads through to the engine as its trace context.
        """
        epoch_before = self.engine.data_epoch
        results = self.engine.query_many(queries, obs=ctx)
        epoch_after = self.engine.data_epoch
        for query, result in zip(queries, results):
            self.cache.store(query, result, epoch_before, epoch_after)
        return results

    async def _answer(self, queries: List[Query],
                      ctx: Optional[TraceContext] = None
                      ) -> Tuple[List[dict], List[bool]]:
        """Cache lookups first, the misses through the engine lane.

        Untraced requests ride the micro-batcher; traced ones go to
        the executor directly (one engine call for the whole miss
        list), so their spans describe exactly this request's work.
        The engine pins batched == sequential, so the answers are
        bit-identical down either lane.
        """
        # An off-template query is this request's 400, here, before it
        # could fail the micro-batch it would have ridden in.
        template = self.engine.template
        for query in queries:
            problem = template.problem(query)
            if problem is not None:
                raise _HTTPError(400, problem)
        results: List[Optional[QueryResult]] = [None] * len(queries)
        cached = [False] * len(queries)
        misses: List[int] = []
        epoch = self.engine.data_epoch
        t0 = time.perf_counter()
        for i, query in enumerate(queries):
            hit = self.cache.lookup(query, epoch)
            if hit is not None:
                results[i] = hit
                cached[i] = True
            else:
                misses.append(i)
        if ctx is not None:
            ctx.add_span("cache_lookup",
                         int((time.perf_counter() - t0) * 1e6),
                         n_queries=len(queries),
                         hits=len(queries) - len(misses))
        if misses:
            miss_queries = [queries[i] for i in misses]
            if ctx is None:
                answered = await self.batcher.submit_many(miss_queries)
            else:
                answered = await self._execute_traced(miss_queries, ctx)
            for i, result in zip(misses, answered):
                results[i] = result
        for query, result in zip(queries, results):
            # TOPK clients want the members, not just the covered mass;
            # the item list rides in the envelope (decoded from the
            # answer's own sketch blob, so it is exactly the state the
            # estimate came from).  Decoded once per answer: the list
            # stays with the (cacheable) result, so a cache hit does no
            # sketch work.
            if query.agg is AggFunc.TOPK and \
                    TOPK_KEY not in result.details and \
                    SKETCH_KEY in result.details:
                sketch = sketch_from_bytes(result.details[SKETCH_KEY])
                result.details[TOPK_KEY] = [
                    [float(value), int(count)] for value, count
                    in sketch.top(int(query.param))]
        payloads = [result_to_dict(r) for r in results]
        return payloads, cached

    async def _execute_traced(self, queries: List[Query],
                              ctx: TraceContext) -> List[QueryResult]:
        """Engine lane for a traced request (skips the batcher)."""
        loop = asyncio.get_running_loop()
        t_submit = time.perf_counter()

        def run() -> List[QueryResult]:
            # Queue wait between the loop handing the job off and the
            # executor picking it up - the traced analogue of the
            # batcher's admission delay.
            ctx.add_span("admission",
                         int((time.perf_counter() - t_submit) * 1e6),
                         n_queries=len(queries))
            return self._engine_execute(queries, ctx)

        return await loop.run_in_executor(self._executor, run)

    # ------------------------------------------------------------------ #
    # tracing / explain
    # ------------------------------------------------------------------ #
    def _trace_context(self, headers: Optional[Dict[str, str]],
                       force: bool) -> Optional[TraceContext]:
        """Sample this request (honouring ``X-Janus-Trace``).

        A client-supplied trace id (hex) always traces and propagates
        verbatim, so a caller can stitch our spans into its own trace.
        """
        raw = headers.get("x-janus-trace") if headers else None
        tid: Optional[int] = None
        if raw:
            try:
                tid = int(raw, 16)
            except ValueError:
                raise _HTTPError(
                    400, f"bad X-Janus-Trace header {raw!r} "
                         f"(expected hex)") from None
            # The fleet's frame header carries it as a u64.
            if not 0 < tid < 2 ** 64:
                raise _HTTPError(
                    400, "X-Janus-Trace must be a positive hex id of "
                         "at most 64 bits")
        return self.tracer.sample(force=force or tid is not None,
                                  trace_id=tid)

    def _finish_request(self, route: str, t_req: float, n_queries: int,
                        ctx: Optional[TraceContext]) -> Optional[dict]:
        """Slow-query accounting + trace completion for one read."""
        dur_ms = (time.perf_counter() - t_req) * 1e3
        if self.slow_query_ms is not None and dur_ms > self.slow_query_ms:
            self._c_slow.inc()
            log_event(self._log_stream, "slow_query", route=route,
                      duration_ms=round(dur_ms, 3), n_queries=n_queries,
                      trace_id=f"{ctx.trace_id:x}" if ctx else None)
        if ctx is None:
            return None
        trace = ctx.finish(route=route)
        self._c_traces.inc()
        return trace

    def _explain_report(self, queries: List[Query], payloads: List[dict],
                        cached: List[bool], trace: dict,
                        ctx: TraceContext) -> dict:
        """Per-stage timings + per-query routing decisions.

        Built entirely from the request's own trace (span durations,
        planner notes) plus a read of the engine's routing summaries
        to name *why* each pruned shard was skipped - advisory, so the
        lock-free summary read is fine (see ``ShardSummary.classify``).
        """
        by_name: Dict[str, int] = {}
        memo_hits = 0
        for span in trace["spans"]:
            by_name[span["name"]] = \
                by_name.get(span["name"], 0) + int(span["dur_us"])
            if span["name"] == "parse":
                memo_hits += span["tags"].get("memo_hits", 0)
        stages = {name: by_name[name]
                  for name in ("parse", "admission", "cache_lookup",
                               "plan", "merge") if name in by_name}
        if "execute" in by_name:
            stages["execute"] = by_name["execute"]
        elif "engine_execute" in by_name:
            # Single-engine path: the engine span is the execute stage.
            stages["execute"] = by_name["engine_execute"]
        shard_execute = [{"shard": span["tags"].get("shard"),
                          "dur_us": int(span["dur_us"])}
                         for span in trace["spans"]
                         if span["name"] == "shard_execute"]
        notes = ctx.notes
        subsets = notes.get("subsets")
        live = notes.get("live", [])
        summaries = getattr(self.engine, "summaries", None)
        miss_pos = {i: j for j, i in enumerate(
            i for i in range(len(queries)) if not cached[i])}
        per_query: List[dict] = []
        for i, query in enumerate(queries):
            if cached[i]:
                per_query.append({"tier": "cache"})
                continue
            if query.agg.family is AggFamily.SKETCH:
                entry = {"tier": "sketch"}
            else:
                entry = {"tier": "exact" if payloads[i].get("exact")
                         else "estimate"}
            j = miss_pos.get(i)
            if subsets is not None and j is not None and j < len(subsets):
                contrib = [int(s) for s in subsets[j]]
                entry["shards"] = contrib
                if summaries is not None:
                    lo = np.asarray(query.rect.lo, dtype=np.float64)
                    hi = np.asarray(query.rect.hi, dtype=np.float64)
                    entry["pruned"] = [
                        {"shard": int(s),
                         "reason": summaries[s].classify(lo, hi)}
                        for s in live if int(s) not in contrib]
            per_query.append(entry)
        return {"trace_id": trace["trace_id"],
                "duration_us": trace["duration_us"],
                "stages_us": stages,
                # statements the parse stage took from the memo
                "memo_hits": memo_hits,
                "shard_execute": shard_execute,
                "queries": per_query}

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes) -> dict:
        path = path.split("?", 1)[0]
        handler = self._routes.get((method, path))
        if handler is None:
            if path in self._known_paths:
                raise _HTTPError(405, f"method {method} not allowed "
                                      f"for {path}")
            raise _HTTPError(404, f"unknown route {path}")
        counter = self._route_counters.get(path)
        if counter is None:
            counter = self._route_counters[path] = self.metrics.counter(
                "janus_service_requests_total", route=path)
        counter.inc()
        hist = self._route_hists.get(path)
        if hist is None:
            hist = self._route_hists[path] = self.metrics.histogram(
                "janus_service_request_seconds", route=path)
        # The clock covers the body decode (and the executor hop of a
        # large one): the requests it is dearest for must not vanish
        # from the per-route histogram.
        t0 = time.perf_counter()
        try:
            payload = None
            if method == "POST":
                if len(body) > 256 * 1024:
                    # Decoding a large body inline would stall the
                    # event loop (and every other connection with it).
                    payload = await asyncio.get_running_loop() \
                        .run_in_executor(self._executor,
                                         self._json_body, body)
                else:
                    payload = self._json_body(body)
            return await handler(payload, headers)
        finally:
            hist.observe(time.perf_counter() - t0)

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HTTPError(400, "body must be a JSON object")
        return payload

    async def _handle_health(self, _payload, _headers) -> dict:
        fleet_health = getattr(self.engine, "fleet_health", None)
        if fleet_health is None:
            return {"status": "ok"}
        # Fleet engines report per-worker liveness; a fleet with a
        # dead worker still serves routable queries but is "degraded"
        # until the supervisor's restart lands.
        return fleet_health()

    def _read_body(self, route: str, payload: dict
                   ) -> Tuple[list, bool, Callable[[object], Query]]:
        """``(items, single, parse)`` of a read request: the body's
        query list, whether it was sent as one bare item, and what
        turns an item into a :class:`Query` - all that tells ``/sql``
        from ``/query``."""
        if route == "/sql":
            if "sql" not in payload:
                raise _HTTPError(400, "expected 'sql'")
            raw = payload["sql"]
            single = isinstance(raw, str)
            statements = [raw] if single else raw
            if not isinstance(statements, list) or \
                    not all(isinstance(s, str) for s in statements):
                raise _HTTPError(400, "'sql' must be a string or a "
                                      "list of strings")
            return statements, single, self.bind_sql
        if "queries" in payload:
            raw, single = payload["queries"], False
        elif "query" in payload:
            raw, single = [payload["query"]], True
        else:
            raise _HTTPError(400, "expected 'query' or 'queries'")
        if not isinstance(raw, list):
            raise _HTTPError(400, "'queries' must be a list")
        return raw, single, query_from_dict

    async def _handle_read(self, route: str, payload: dict,
                           headers) -> dict:
        t_req = time.perf_counter()
        raw, single, parse = self._read_body(route, payload)
        explain = payload.get("explain", False)
        if not isinstance(explain, bool):
            raise _HTTPError(400, "'explain' must be true or false")
        if explain:
            self._c_explain.inc()
        ctx = self._trace_context(headers, force=explain)
        # Parsing is synchronous on the loop, so the memo's hit count
        # moves by exactly this request's hits.
        hits0 = self.bind_sql.cache_info().hits if ctx is not None else 0
        t0 = time.perf_counter()
        try:
            queries = [parse(item) for item in raw]
        except ValueError as exc:       # SQLError included
            raise _HTTPError(400, str(exc)) from exc
        if ctx is not None:
            ctx.add_span("parse",
                         int((time.perf_counter() - t0) * 1e6),
                         n_queries=len(queries),
                         memo_hits=self.bind_sql.cache_info().hits - hits0)
        results, cached = await self._answer(queries, ctx)
        out = {"result": results[0], "cached": cached[0]} if single \
            else {"results": results, "cached": cached}
        trace = self._finish_request(route, t_req, len(queries), ctx)
        if explain and trace is not None:
            out["explain"] = self._explain_report(queries, results,
                                                  cached, trace, ctx)
        return out

    def _decode_and_insert(self, raw) -> List[int]:
        """Array conversion, validation and ingest, off the loop."""
        try:
            rows = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _HTTPError(400, f"bad rows: {exc}") from exc
        if rows.size and rows.ndim != 2:
            raise _HTTPError(400, "rows must be a list of equal-length "
                                  "numeric lists")
        if rows.size and not np.isfinite(rows).all():
            # One NaN row would poison SUM/AVG delta statistics for
            # every client (and a later delete cannot heal nan - nan);
            # the trust boundary rejects it before the engine sees it.
            raise _HTTPError(400, "rows must contain only finite "
                                  "values")
        try:
            return self.engine.insert_many(rows)
        except ValueError as exc:
            raise _HTTPError(400, str(exc)) from exc

    async def _handle_insert(self, payload: dict, _headers) -> dict:
        if "rows" not in payload:
            raise _HTTPError(400, "expected 'rows'")
        loop = asyncio.get_running_loop()
        tids = await loop.run_in_executor(
            self._executor, self._decode_and_insert, payload["rows"])
        return {"tids": [int(t) for t in tids],
                "epoch": int(self.engine.data_epoch)}

    async def _handle_delete(self, payload: dict, _headers) -> dict:
        if "tids" not in payload:
            raise _HTTPError(400, "expected 'tids'")
        tids = payload["tids"]
        # JSON integers only: int() would read "12" as tids 1 and 2,
        # 7.9 as 7 and true as 1.  The engines hold tids as int64.
        if not isinstance(tids, list) or not all(
                type(t) is int and -2 ** 63 <= t < 2 ** 63 for t in tids):
            raise _HTTPError(400, "'tids' must be a list of 64-bit "
                                  "integers")
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                self._executor, self.engine.delete_many, tids)
        except KeyError as exc:
            raise _HTTPError(400, f"delete failed: {exc}") from exc
        return {"deleted": len(tids),
                "epoch": int(self.engine.data_epoch)}

    def _engine_stats(self) -> dict:
        """The ``/stats`` engine block (runs in the executor: on a
        fleet ``pool_size`` is one blocking round trip per worker,
        queued behind whatever that worker is doing)."""
        engine = self.engine
        stats = {"rows": len(engine.table),
                 "pool_size": engine.pool_size,
                 "data_epoch": int(engine.data_epoch)}
        n_shards = getattr(engine, "n_shards", None)
        if n_shards is not None:    # any sharded coordinator
            stats["n_shards"] = n_shards
            stats["shard_sizes"] = engine.shard_sizes()
            stats["routing"] = engine.routing_stats()
        fleet_stats = getattr(engine, "fleet_stats", None)
        if fleet_stats is not None:
            stats["fleet"] = fleet_stats()
        return stats

    async def _handle_stats(self, _payload, _headers) -> dict:
        engine_stats = await asyncio.get_running_loop().run_in_executor(
            self._executor, self._engine_stats)
        memo = self.bind_sql.cache_info()
        return {
            "engine": engine_stats,
            "batcher": self.batcher.stats(),
            "cache": self.cache.stats(),
            "statements": {"hits": memo.hits, "misses": memo.misses,
                           "size": memo.currsize},
            "requests": {route: int(c.value)
                         for route, c in self._route_counters.items()},
            "n_bad_requests": int(self._c_bad.value),
            "uptime_seconds": time.time() - self._started_at,
        }

    async def _handle_traces(self, _payload, _headers) -> dict:
        traces = self.tracer.snapshot()
        return {"n": len(traces),
                "sample_every": self.tracer.sample_every,
                "capacity": TRACE_CAPACITY,
                "traces": traces}

    def _sample_gauges(self) -> None:
        """Scrape-time snapshot of engine state into the gauges that
        have no event to ride on (runs in the executor, like every
        other engine call).  Routing and per-worker series come
        straight from the engine's own registry."""
        self._g_uptime.set(time.time() - self._started_at)
        self._g_rows.set(len(self.engine.table))
        self._g_epoch.set(int(self.engine.data_epoch))
        fleet_health = getattr(self.engine, "fleet_health", None)
        if fleet_health is not None:
            health = fleet_health()
            self.metrics.gauge("janus_service_workers").set(
                health["n_workers"])
            self.metrics.gauge("janus_service_workers_alive").set(
                health["n_alive"])

    async def _handle_metrics(self, _payload, _headers) -> dict:
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self._sample_gauges)
        engine_reg = getattr(self.engine, "metrics", None)
        if isinstance(engine_reg, MetricsRegistry) and \
                engine_reg is not self.metrics:
            text = render_exposition(self.metrics, engine_reg)
        else:
            text = render_exposition(self.metrics)
        return {"__raw__": text}

    # ------------------------------------------------------------------ #
    # HTTP codec
    # ------------------------------------------------------------------ #
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    # The idle timeout bounds parked connections: a
                    # client that connects (or keeps alive) and never
                    # sends a request must not hold a task and an fd
                    # forever.
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=IDLE_TIMEOUT)
                except asyncio.TimeoutError:
                    break
                except _HTTPError as exc:
                    # A request we could not even parse still deserves
                    # a response; the connection closes after it since
                    # the stream position is unreliable.
                    self._c_bad.inc()
                    self._write_response(writer, exc.status,
                                         {"error": str(exc)}, False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, version, headers, body = request
                keep_alive = (version != "HTTP/1.0" and
                              headers.get("connection", "") != "close")
                try:
                    payload = await self._route(method, path, headers,
                                                body)
                    status = 200
                except _HTTPError as exc:
                    payload = {"error": str(exc)}
                    status = exc.status
                    self._c_bad.inc()
                except FleetUnavailableError as exc:
                    # A fleet worker is down and the query needs its
                    # shard: refuse explicitly rather than answer
                    # wrong; the fleet self-heals, clients retry.
                    payload = {"error": str(exc), "retryable": True}
                    status = 503
                    self._c_bad.inc()
                except Exception as exc:    # engine-side failure
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                    status = 500
                    self._c_bad.inc()
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                asyncio.CancelledError, _HTTPError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` at a clean connection close."""
        try:
            line = await reader.readline()
        except ValueError:      # request line over the stream limit
            raise _HTTPError(400, "request line too long") from None
        except ConnectionResetError:
            return None
        if not line:
            return None
        try:
            method, path, version = \
                line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            raise _HTTPError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # a header over the stream limit
                raise _HTTPError(400, "header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                # One connection must not grow server memory without
                # bound by streaming headers forever.
                raise _HTTPError(431, "request headers too large")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _HTTPError(400, f"bad Content-Length "
                                  f"{raw_length!r}") from None
        if length < 0:
            raise _HTTPError(400, f"bad Content-Length {raw_length!r}")
        if length > _MAX_BODY:
            raise _HTTPError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, version, headers, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        payload: dict, keep_alive: bool) -> None:
        if "__raw__" in payload:            # /metrics text exposition
            body = payload["__raw__"].encode("utf-8")
            content_type = "text/plain; version=0.0.4"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode("latin-1") + body)


# ---------------------------------------------------------------------- #
# background serving for synchronous callers (tests, benchmarks, examples)
# ---------------------------------------------------------------------- #
class ServiceHandle:
    """A running server on a private event-loop thread.

    ``host``/``port`` are live once :func:`serve_background` returns;
    :meth:`stop` shuts the server down gracefully and joins the thread.
    The underlying :class:`AQPServer` is exposed as :attr:`server` for
    stats inspection (its counters are plain ints, safe to read).
    """

    def __init__(self, server: AQPServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread,
                 stop_event: asyncio.Event) -> None:
        self.server = server
        self.host = server.host
        self.port = server.port
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_background(engine, **kwargs) -> ServiceHandle:
    """Start an :class:`AQPServer` on a daemon thread and wait for bind.

    Keyword arguments are forwarded to :class:`AQPServer`.  Returns a
    :class:`ServiceHandle` whose ``port`` is resolved (pass ``port=0``
    for an ephemeral one).  Startup errors re-raise in the caller.
    """
    started = threading.Event()
    box: dict = {}

    async def main() -> None:
        server = AQPServer(engine, **kwargs)
        stop_event = asyncio.Event()
        try:
            await server.start()
        except Exception as exc:            # surface bind errors
            box["error"] = exc
            started.set()
            return
        box["server"] = server
        box["loop"] = asyncio.get_running_loop()
        box["stop_event"] = stop_event
        started.set()
        await stop_event.wait()
        await server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              name="janus-service", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if "error" in box:
        raise box["error"]
    if "server" not in box:
        raise RuntimeError("service failed to start within 30s")
    return ServiceHandle(box["server"], box["loop"], thread,
                         box["stop_event"])
