"""Micro-batching admission: concurrent requests become one batch call.

The PR 2 batched query engine answers a whole batch under one lock with
one shared frontier traversal - but an HTTP server naturally receives
queries one connection at a time, which would degrade to per-query
calls exactly when load is highest.  :class:`MicroBatcher` converts
concurrency back into batches by **group commit**: every in-flight
``/query`` / ``/sql`` request parks its queries (with a future each) in
a pending list, and the parked queries leave together - one
:meth:`~repro.core.janus.JanusAQP.query_many` call in a worker thread -
as soon as one of these holds:

* **idle** - nothing is in flight.  The flush is deferred by a single
  ``loop.call_soon``, so requests arriving in the same loop iteration
  still share a batch, but a lone request never waits for company that
  cannot come;
* **drain** - an in-flight batch completed with queries parked behind
  it.  While a slow synopsis pass runs, waiting clients accumulate into
  the *next* batch and leave at once when the lane frees up - larger
  (cheaper per query) batches instead of a queue of tiny calls;
* **full** - ``max_batch`` queries are parked;
* **linger** - the oldest parked query has waited ``max_linger_ms``
  behind a busy or stuck lane; the batch then leaves on a second lane.
  The deadline is purely an upper bound on admission delay.

All bookkeeping runs on the event loop (single-threaded, no locks);
only the engine call itself runs in the executor.  Results are
per-query pure functions of the batch members (PR 2 pins batched ==
sequential bit-identically), so co-batching requests from different
clients cannot change any answer.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.queries import Query, QueryResult
from ..obs.metrics import MetricsRegistry

__all__ = ["BatcherStats", "MicroBatcher"]

ExecuteFn = Callable[[List[Query]], List[QueryResult]]
#: A parked query: the query, its future, and when it parked.
Parked = Tuple[Query, asyncio.Future, float]


class BatcherStats:
    """Flush accounting reported by ``/stats`` and ``/metrics``.

    Registry-backed: counts live in ``janus_service_batch*``
    instruments; the historical attribute surface stays as properties
    (``max_batch_size`` keeps its setter - the latency benchmark
    resets it between phases).
    """

    __slots__ = ("_c_batches", "_c_queries", "_g_max", "_c_reason",
                 "_h_wait")

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        registry = metrics if metrics is not None else MetricsRegistry()
        self._c_batches = registry.counter("janus_service_batches_total")
        self._c_queries = registry.counter(
            "janus_service_batched_queries_total")
        self._g_max = registry.gauge("janus_service_batch_max_size")
        #: Why each batch left (see the module docstring); "isolated"
        #: counts queries re-run solo after a poisoned batch.
        self._c_reason = {
            "full": registry.counter(
                "janus_service_batch_flush_full_total"),
            "linger": registry.counter(
                "janus_service_batch_flush_linger_total"),
            "idle": registry.counter(
                "janus_service_batch_flush_idle_total"),
            "drain": registry.counter(
                "janus_service_batch_flush_drain_total"),
            "isolated": registry.counter(
                "janus_service_batch_isolated_total"),
        }
        self._h_wait = registry.histogram(
            "janus_service_batch_wait_seconds")

    def record(self, reason: str, waits: Sequence[float]) -> None:
        """One executed batch: why it left and how long each member
        sat parked before its engine call started."""
        self._c_batches.inc()
        self._c_queries.inc(len(waits))
        self._g_max.set(max(self._g_max.value, len(waits)))
        self._c_reason[reason].inc()
        for wait in waits:
            self._h_wait.observe(wait)

    @property
    def n_batches(self) -> int:
        return int(self._c_batches.value)

    @property
    def n_queries(self) -> int:
        return int(self._c_queries.value)

    @property
    def max_batch_size(self) -> int:
        return int(self._g_max.value)

    @max_batch_size.setter
    def max_batch_size(self, value: int) -> None:
        self._g_max.set(int(value))

    @property
    def n_flush_full(self) -> int:
        return int(self._c_reason["full"].value)

    @property
    def n_flush_linger(self) -> int:
        return int(self._c_reason["linger"].value)

    @property
    def n_flush_idle(self) -> int:
        return int(self._c_reason["idle"].value)

    @property
    def n_flush_drain(self) -> int:
        return int(self._c_reason["drain"].value)

    @property
    def n_isolated(self) -> int:
        return int(self._c_reason["isolated"].value)

    @property
    def avg_batch_size(self) -> float:
        return self.n_queries / self.n_batches if self.n_batches else 0.0

    def to_dict(self) -> dict:
        return {"n_batches": self.n_batches, "n_queries": self.n_queries,
                "max_batch_size": self.max_batch_size,
                "avg_batch_size": self.avg_batch_size,
                "n_flush_full": self.n_flush_full,
                "n_flush_linger": self.n_flush_linger,
                "n_flush_idle": self.n_flush_idle,
                "n_flush_drain": self.n_flush_drain,
                "n_isolated": self.n_isolated}


class MicroBatcher:
    """Coalesces concurrently submitted queries into batch executions.

    ``execute`` is a synchronous callable (it runs inside ``executor``)
    mapping a query list to a result list in order - typically a thin
    wrapper around ``engine.query_many`` that also feeds the result
    cache.  One batcher serves one engine and one event loop.
    """

    def __init__(self, execute: ExecuteFn, max_batch: int = 64,
                 max_linger_ms: float = 2.0,
                 executor=None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_linger_ms < 0:
            raise ValueError("max_linger_ms must be >= 0")
        self._execute = execute
        self.max_batch = int(max_batch)
        self.max_linger = max_linger_ms / 1000.0
        self._executor = executor
        self._pending: List[Parked] = []
        #: The scheduled departure of ``_pending``: a ``call_soon``
        #: handle (idle lane) or a ``call_later`` deadline (busy lane).
        self._departure: Optional[asyncio.Handle] = None
        self._inflight: set = set()
        self._closed = False
        self.stats = BatcherStats(metrics)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    async def submit(self, query: Query) -> QueryResult:
        """Park one query and await its answer."""
        return (await self.submit_many((query,)))[0]

    async def submit_many(self, queries: Sequence[Query]
                          ) -> List[QueryResult]:
        """Park a request's queries and await all its answers in order.

        The request's queries may be split across engine batches (they
        are answered independently); the await resolves when the last
        one lands.
        """
        queries = list(queries)
        if not queries:
            return []
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in queries]
        now = time.perf_counter()
        self._pending.extend((q, f, now) for q, f in zip(queries, futures))
        while len(self._pending) >= self.max_batch:
            self._flush("full")
        if self._pending and self._departure is None:
            if self._inflight:
                self._departure = loop.call_later(
                    self.max_linger, self._flush, "linger")
            else:
                self._departure = loop.call_soon(self._flush, "idle")
        return list(await asyncio.gather(*futures))

    # ------------------------------------------------------------------ #
    # flushing
    # ------------------------------------------------------------------ #
    def _flush(self, reason: str) -> None:
        """The parked queries (one ``max_batch`` of them) leave now."""
        if self._departure is not None:
            self._departure.cancel()
            self._departure = None
        if not self._pending:
            return
        batch = self._pending[:self.max_batch]
        del self._pending[:self.max_batch]
        task = asyncio.get_running_loop().create_task(
            self._run(batch, reason))
        self._inflight.add(task)
        task.add_done_callback(self._landed)

    def _landed(self, task: asyncio.Task) -> None:
        """A batch completed: whoever parked behind it leaves at once."""
        self._inflight.discard(task)
        self._flush("drain")

    async def _call(self, batch: List[Parked], reason: str
                    ) -> List[QueryResult]:
        """One engine call in the executor, accounted when it succeeds."""
        started: List[float] = []

        def call() -> List[QueryResult]:
            started.append(time.perf_counter())
            return self._execute([query for query, _, _ in batch])

        results = await asyncio.get_running_loop().run_in_executor(
            self._executor, call)
        self.stats.record(reason, [started[0] - parked
                                   for _, _, parked in batch])
        return results

    async def _run(self, batch: List[Parked], reason: str) -> None:
        try:
            results = await self._call(batch, reason)
        except Exception:
            # A poisoned batch (one malformed query fails the whole
            # engine call): isolate by re-running per query so one
            # client's bad request cannot fail its co-batched
            # neighbours, exactly like the stream driver's fallback.
            for member in batch:
                future = member[1]
                try:
                    result = (await self._call([member], "isolated"))[0]
                except Exception as exc:
                    if not future.done():
                        future.set_exception(exc)
                else:
                    if not future.done():
                        future.set_result(result)
            return
        for (_, future, _), result in zip(batch, results):
            if not future.done():
                future.set_result(result)

    async def close(self) -> None:
        """Flush whatever is parked and wait for in-flight batches."""
        self._closed = True
        self._flush("drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
