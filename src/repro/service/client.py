"""Thin synchronous HTTP client for the AQP service.

:class:`ServiceClient` speaks the JSON wire format of
:class:`~repro.service.server.AQPServer` over one keep-alive
``http.client`` connection.  It is deliberately minimal - the tests,
the serving example and the latency benchmark all drive the service
through it, so it doubles as the reference for the wire protocol.

One client owns one connection and is **not** thread-safe; concurrent
benchmark drivers create one client per thread (mirroring real
connection-pooled clients, one connection per in-flight request).
Results come back as full :class:`~repro.core.queries.QueryResult`
envelopes (estimate, both variance components, exactness, frontier
sizes), so ``result.ci()`` works client-side exactly as in-process;
the server-side ``details`` dict is not transported, and the client
records whether the server answered from its epoch cache as
``result.details["cached"]``.
"""

from __future__ import annotations

import json
from http.client import (BadStatusLine, CannotSendRequest, HTTPConnection,
                         RemoteDisconnected)
from typing import List, Optional, Sequence

import numpy as np

from ..broker.requests import query_to_dict, result_from_dict
from ..core.queries import Query, QueryResult

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response; carries the HTTP status and server message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """A keep-alive JSON client bound to one server address."""

    def __init__(self, host: str, port: int,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port,
                                        timeout=self.timeout)
        return self._conn

    #: Routes safe to replay after a dropped keep-alive connection.
    #: Mutating routes (/insert, /delete) are NOT retried: the server
    #: may have applied the request before the connection died, and a
    #: blind replay would ingest the rows twice.
    _IDEMPOTENT = ("/query", "/sql", "/stats", "/metrics", "/health")

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> bytes:
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        retriable = path.split("?", 1)[0] in self._IDEMPOTENT
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (RemoteDisconnected, BadStatusLine, CannotSendRequest,
                    ConnectionResetError, BrokenPipeError):
                # A keep-alive connection the server closed between
                # requests; reconnect once for read-only routes, give
                # up immediately for writes (not safe to replay).
                self.close()
                if attempt or not retriable:
                    raise
        if response.status >= 300:
            try:
                message = json.loads(data.decode("utf-8"))["error"]
            except (ValueError, KeyError, UnicodeDecodeError):
                message = data.decode("utf-8", "replace")
            raise ServiceError(response.status, message)
        return data

    def _json(self, method: str, path: str,
              payload: Optional[dict] = None) -> dict:
        return json.loads(self._request(method, path, payload)
                          .decode("utf-8"))

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #
    def insert_many(self, rows) -> List[int]:
        """POST /insert: bulk ingest; returns the assigned tids."""
        rows = np.asarray(rows, dtype=np.float64)
        payload = self._json("POST", "/insert",
                             {"rows": rows.tolist()})
        return [int(t) for t in payload["tids"]]

    def insert(self, values: Sequence[float]) -> int:
        """Insert one row; returns its tid."""
        return self.insert_many([list(values)])[0]

    def delete_many(self, tids: Sequence[int]) -> int:
        """POST /delete: bulk delete by tid; returns the count."""
        payload = self._json("POST", "/delete",
                             {"tids": [int(t) for t in tids]})
        return int(payload["deleted"])

    def delete(self, tid: int) -> None:
        self.delete_many((tid,))

    # ------------------------------------------------------------------ #
    # query plane
    # ------------------------------------------------------------------ #
    def _read(self, route: str, body: dict) -> List[QueryResult]:
        """POST one read request; answers in request order, each with
        ``details["cached"]`` (did the server answer from its epoch
        cache), surfaced the way answer metadata travels in-process."""
        payload = self._json("POST", route, body)
        if "result" in payload:         # a bare item, not a batch
            payload = {"results": [payload["result"]],
                       "cached": [payload["cached"]]}
        results = [result_from_dict(r) for r in payload["results"]]
        for result, cached in zip(results, payload["cached"]):
            result.details["cached"] = bool(cached)
        return results

    def query(self, query: Query) -> QueryResult:
        """POST /query with one structured query."""
        return self._read("/query", {"query": query_to_dict(query)})[0]

    def query_many(self, queries: Sequence[Query]) -> List[QueryResult]:
        """POST /query with a batch; results in request order."""
        return self._read("/query", {
            "queries": [query_to_dict(q) for q in queries]})

    def sql(self, statement: str) -> QueryResult:
        """POST /sql with one statement of the supported subset."""
        return self._read("/sql", {"sql": statement})[0]

    def sql_many(self, statements: Sequence[str]) -> List[QueryResult]:
        """POST /sql with a statement batch; results in order."""
        return self._read("/sql", {"sql": list(statements)})

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """GET /stats: engine, batcher and cache counters as JSON."""
        return self._json("GET", "/stats")

    def metrics(self) -> str:
        """GET /metrics: Prometheus text exposition."""
        return self._request("GET", "/metrics").decode("utf-8")

    def health(self) -> bool:
        try:
            return self._json("GET", "/health").get("status") == "ok"
        except (OSError, ServiceError):
            return False
