"""Stream-driven request processing (Section 3.2, PSoup architecture).

:class:`StreamDriver` connects a :class:`~repro.broker.broker.Broker`'s
``insert`` / ``delete`` / ``execute`` topics to a synopsis engine -
either a single :class:`JanusAQP` or, in shard-routing mode, a
:class:`~repro.core.sharded.ShardedJanusAQP` coordinator, in which case
every drained batch fans out across the shard fleet and the execute
topic is answered with merged cross-shard estimates.  Clients produce
serialized requests; the driver polls the topics, applies data requests
in arrival order, answers queries against the state as of their arrival
point, and publishes results to a ``results`` topic.  Like Kafka, ordering is guaranteed within a topic;
the driver drains data topics before each query batch, which gives every
query the "all data that has arrived until time point i" semantics the
paper specifies.

Data topics are applied in bulk: each polled batch is decoded into one
row block and pushed through :meth:`JanusAQP.insert_many` /
:meth:`JanusAQP.delete_many`, so a poll of n records costs one lock
round-trip instead of n.  The query topic drains the same way: each
polled batch is answered through :meth:`JanusAQP.query_many` (one lock,
one shared frontier pass) and published to the ``results`` topic as
:class:`~repro.broker.requests.QueryResponse` records in one bulk
produce.  :class:`StreamClient` offers matching bulk producers
(:meth:`StreamClient.insert_many` / :meth:`StreamClient.delete_many` /
:meth:`StreamClient.execute_many`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from ..broker.broker import Broker, Consumer
from ..broker.requests import (DeleteRequest, InsertRequest, QueryRequest,
                               decode, encode_delete, encode_insert,
                               encode_inserts, encode_queries,
                               encode_query, encode_result)
from .janus import JanusAQP
from .queries import Query, QueryResult

if TYPE_CHECKING:   # typing-only; avoids a load-order dependency
    from .sharded import ShardedJanusAQP

#: Anything the driver can feed: one synopsis or a shard coordinator.
SynopsisEngine = Union[JanusAQP, "ShardedJanusAQP"]


@dataclass
class StreamStats:
    n_inserts: int = 0
    n_deletes: int = 0
    n_queries: int = 0
    n_bad_requests: int = 0


class StreamClient:
    """Producer-side helper: assigns client keys and serializes requests."""

    def __init__(self, broker: Broker) -> None:
        self._broker = broker
        self._next_key = 0
        self._next_query = 0

    def insert(self, values) -> int:
        """Produce one insert record; returns its client key.

        Keys, not tids, identify tuples on the wire: the driver assigns
        tids server-side and owns the key-to-tid map.
        """
        key = self._next_key
        self._next_key += 1
        self._broker.topic(Broker.INSERT).produce(
            encode_insert(key, values))
        return key

    def insert_many(self, rows) -> List[int]:
        """Produce one insert record per row; returns the client keys."""
        rows = np.asarray(rows, dtype=np.float64)
        records, keys = encode_inserts(self._next_key, rows)
        self._next_key += len(keys)
        self._broker.topic(Broker.INSERT).produce_many(records)
        return keys

    def delete(self, key: int) -> None:
        """Produce a delete referencing a previous insert's client key."""
        self._broker.topic(Broker.DELETE).produce(encode_delete(key))

    def delete_many(self, keys) -> None:
        """Produce one delete record per client key, in one bulk append."""
        self._broker.topic(Broker.DELETE).produce_many(
            encode_delete(int(k)) for k in keys)

    def execute(self, query) -> int:
        """Produce one query record; returns its query id."""
        query_id = self._next_query
        self._next_query += 1
        self._broker.topic(Broker.EXECUTE).produce(
            encode_query(query_id, query))
        return query_id

    def execute_many(self, queries: List[Query]) -> List[int]:
        """Produce one query record per query; returns the query ids."""
        records, ids = encode_queries(self._next_query, list(queries))
        self._next_query += len(ids)
        self._broker.topic(Broker.EXECUTE).produce_many(records)
        return ids


class StreamDriver:
    """Consumer side: applies the request stream to a synopsis engine.

    ``janus`` may be a single :class:`JanusAQP` or a
    :class:`~repro.core.sharded.ShardedJanusAQP` coordinator
    (shard-routing mode): the driver speaks only the shared engine
    surface - ``insert_many`` / ``delete_many`` / ``query_many``, the
    per-row wrappers, and ``tid in engine.table`` liveness - so the same
    event log drives one synopsis or a whole fleet unchanged
    (``tests/test_sharded.py`` pins the sharded drain).
    """

    RESULTS = "results"

    def __init__(self, broker: Broker, janus: SynopsisEngine) -> None:
        self.broker = broker
        self.janus = janus
        self._insert_consumer = Consumer(broker.topic(Broker.INSERT))
        self._delete_consumer = Consumer(broker.topic(Broker.DELETE))
        self._query_consumer = Consumer(broker.topic(Broker.EXECUTE))
        self._tid_of_key: Dict[int, int] = {}
        self.results: Dict[int, QueryResult] = {}
        self.stats = StreamStats()

    # ------------------------------------------------------------------ #
    def drain(self, batch_size: int = 1024) -> StreamStats:
        """Process everything currently queued, data before queries."""
        while (self._insert_consumer.lag or self._delete_consumer.lag or
               self._query_consumer.lag):
            # Inserts drain fully before deletes: a delete can only
            # reference a key whose insert was produced earlier, so this
            # order never orphans a delete that is already queued.
            while self._insert_consumer.lag:
                self._apply_batch(self._insert_consumer.poll(batch_size),
                                  InsertRequest)
            while self._delete_consumer.lag:
                self._apply_batch(self._delete_consumer.poll(batch_size),
                                  DeleteRequest)
            self._apply_batch(self._query_consumer.poll(batch_size),
                              QueryRequest)
        return self.stats

    def _apply_batch(self, records: List[str], kind: type) -> None:
        """One polled batch of a topic whose records are ``kind``: runs
        of them go through the engine's batch API (n records, one lock
        round-trip).  An off-kind record flushes the run first, so
        arrival order holds, then applies as a batch of one of its own
        kind; an undecodable record is counted."""
        pending: list = []
        for record in records:
            try:
                request = decode(record)
            except (ValueError, IndexError):
                request = None
            if isinstance(request, kind):
                pending.append(request)
                continue
            self._FLUSH[kind](self, pending)
            pending = []
            if request is None:
                self.stats.n_bad_requests += 1
            else:
                self._FLUSH[type(request)](self, [request])
        self._FLUSH[kind](self, pending)

    def _flush_inserts(self, pending: List[InsertRequest]) -> None:
        """A row of the wrong width is one bad request; the rest of the
        run is inserted in one call (the records are already consumed,
        so raising would drop them)."""
        width = len(self.janus.table.schema)
        good = [request for request in pending
                if len(request.values) == width]
        self.stats.n_bad_requests += len(pending) - len(good)
        if not good:
            return
        tids = self.janus.insert_many(np.asarray(
            [request.values for request in good], dtype=np.float64))
        for request, tid in zip(good, tids):
            self._tid_of_key[request.key] = tid
        self.stats.n_inserts += len(good)

    def _flush_deletes(self, pending: List[DeleteRequest]) -> None:
        tids: List[int] = []
        for request in pending:
            tid = self._tid_of_key.pop(request.key, None)
            if tid is None or tid not in self.janus.table:
                self.stats.n_bad_requests += 1
            else:
                tids.append(tid)
        if tids:
            self.janus.delete_many(tids)
            self.stats.n_deletes += len(tids)

    def _flush_queries(self, pending: List[QueryRequest]) -> None:
        """Answer a run through the batched engine (one lock round-trip,
        one shared frontier pass) and publish it in one bulk produce.
        A query off the engine's template is one bad request, counted
        before the call it would otherwise fail as a whole."""
        template = self.janus.template
        good = [request for request in pending
                if template.problem(request.query) is None]
        self.stats.n_bad_requests += len(pending) - len(good)
        if not good:
            return
        answered = list(zip(good, self.janus.query_many(
            [request.query for request in good])))
        self.broker.topic(self.RESULTS).produce_many(
            [encode_result(request.query_id, result)
             for request, result in answered])
        for request, result in answered:
            self.results[request.query_id] = result
        self.stats.n_queries += len(answered)

    #: What applies a run of each request kind (:meth:`_apply_batch`).
    _FLUSH = {InsertRequest: _flush_inserts, DeleteRequest: _flush_deletes,
              QueryRequest: _flush_queries}
