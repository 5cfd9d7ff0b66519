"""Fleet worker: one process, one JanusAQP shard, one binary socket.

Spawned by the fleet coordinator (:mod:`repro.service.fleet`) as::

    python -m repro.service.worker --fd N --snapshot DIR --shard S

where ``N`` is an inherited socketpair end and ``DIR`` a
:func:`~repro.core.persist.save_sharded` snapshot the worker
warm-starts shard ``S`` from (:func:`~repro.core.persist.load_shard`).
The process then runs a single-threaded frame loop over the protocol
of :mod:`repro.broker.frames`: the coordinator owns placement, routing
summaries and merging; the worker owns exactly one synopsis and its
archival table, so the numpy hot paths of N workers run on N
interpreters with N GILs.

Determinism is the contract: the worker drives its engine through the
same :class:`~repro.core.sharded.LocalShard` the in-process coordinator
uses (same warm-start state, same lazy-initialize + stagger on first
insert, same RNG stream from the snapshot's per-shard seed), so its
answers are bit-identical to that shard's - the fleet's answer-identity
gate rests on it.  Every reply carries the shard's ``data_epoch`` so
the coordinator's cache mirror tracks mutations without extra round
trips.

The loop is intentionally single-threaded: the coordinator serializes
frames per worker, so there is nothing to lock here, and a crash of
any kind simply ends the process - the coordinator's supervisor
detects the broken socket and respawns from the snapshot.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import socket
import sys
import time
from typing import Optional, Sequence

import numpy as np

from ..broker.frames import (OP_DELETE, OP_ERR, OP_INSERT, OP_OK,
                             OP_PING, OP_QUERY, OP_REOPT, OP_SHUTDOWN,
                             OP_STATS, OP_SUMMARY, decode_query_block,
                             encode_result_block, encode_sketch_block,
                             extract_sketch_frames, pack_reply,
                             recv_frame, send_frame)
from ..core.persist import load_shard
from ..core.sharded import LocalShard
from ..obs.trace import encode_spans

__all__ = ["ShardWorker", "main"]


class ShardWorker:
    """The worker-side frame loop around one warm-started shard."""

    def __init__(self, sock: socket.socket, shard: LocalShard) -> None:
        self.sock = sock
        self.shard = shard
        self.shard_id = shard.shard_id
        self.n_requests = 0
        # Span ids must be unique within a trace yet never collide
        # with the coordinator's small sequential ids; salt a high
        # base with the worker pid (see repro.obs.trace).
        self._span_base = ((os.getpid() & 0xFFFF) | 0x10000) << 32
        self._span_seq = 0

    # ------------------------------------------------------------------ #
    # frame loop
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Serve frames until SHUTDOWN or the coordinator goes away."""
        while True:
            try:
                opcode, meta, payload, trace_id, span = \
                    recv_frame(self.sock)
            except (EOFError, OSError):
                return              # coordinator closed the pair: exit
            self.n_requests += 1
            if opcode == OP_SHUTDOWN:
                self._reply_ok()
                return
            try:
                self._dispatch(opcode, meta, payload, trace_id, span)
            except Exception as exc:
                # Application errors (off-template query, dead local
                # tid) go back as typed ERR frames for the coordinator
                # to re-raise; the loop itself stays up.
                send_frame(self.sock, OP_ERR, 0,
                           [f"{type(exc).__name__}\n{exc}".encode()])

    def _dispatch(self, opcode: int, meta: int, payload,
                  trace_id: int = 0, parent_span: int = 0) -> None:
        if opcode == OP_PING:
            self._reply_ok()
        elif opcode == OP_INSERT:
            self._handle_insert(meta, payload)
        elif opcode == OP_DELETE:
            self._handle_delete(payload)
        elif opcode == OP_QUERY:
            self._handle_query(meta, payload, trace_id, parent_span)
        elif opcode == OP_REOPT:
            self._handle_reopt()
        elif opcode == OP_SUMMARY:
            send_frame(self.sock, OP_OK, 1,
                       pack_reply(self.shard.data_epoch,
                                  [self._summary_npz()]))
        elif opcode == OP_STATS:
            self._handle_stats()
        else:
            raise ValueError(f"unknown opcode {opcode}")

    def _reply_ok(self) -> None:
        send_frame(self.sock, OP_OK, 0,
                   pack_reply(self.shard.data_epoch))

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #
    def _handle_insert(self, n_cols: int, payload) -> None:
        """Raw f64 row block in, local tids + repartition flag out
        (the flag tells the coordinator whether the batch tripped a
        repartition; its summary upkeep branches on it)."""
        rows = np.frombuffer(payload, dtype="<f8").reshape(-1, n_cols)
        local, repartitioned = self.shard.insert(rows)
        send_frame(self.sock, OP_OK, int(repartitioned),
                   pack_reply(self.shard.data_epoch, [local]))

    def _handle_delete(self, payload) -> None:
        """Raw i64 local tids in, the dying rows' predicate coords out.

        The coordinator maintains this shard's routing summary; it
        needs the predicate coordinates of the deleted rows to uncount
        them, and only this process still has the rows.
        """
        coords = self.shard.delete(np.frombuffer(payload, dtype="<i8"))
        send_frame(self.sock, OP_OK, 0,
                   pack_reply(self.shard.data_epoch,
                              [np.ascontiguousarray(coords)]))

    def _handle_reopt(self) -> None:
        """Re-optimize; meta flags whether there was a synopsis to
        rebuild (the coordinator asks for the fresh summary next)."""
        rebuilt = self.shard.reoptimize() is not None
        send_frame(self.sock, OP_OK, int(rebuilt),
                   pack_reply(self.shard.data_epoch))

    # ------------------------------------------------------------------ #
    # queries and introspection
    # ------------------------------------------------------------------ #
    def _handle_query(self, dim: int, payload, trace_id: int = 0,
                      parent_span: int = 0) -> None:
        """A query block of ``dim``-dimensional queries in
        (:func:`~repro.broker.frames.decode_query_block`, which
        rebuilds and so validates every query; a corrupt block is a
        ``ValueError`` the frame loop returns as an ERR frame), a
        RESULT_DTYPE block out.

        Answers that carry sketch blobs (the sketch aggregates) append
        a variable-length sidecar after the fixed block; the reply meta
        still counts results, so the coordinator knows where the fixed
        block ends.  A traced request (``trace_id != 0``) additionally
        appends a JSON span sidecar and reports its byte length in the
        reply header's ``span`` field - the coordinator strips it
        before decoding and grafts the spans under its own
        ``shard_execute`` span.
        """
        queries = decode_query_block(dim, payload)
        t0 = time.perf_counter()
        results = self.shard.engine.query_many(queries)
        span_block = b""
        if trace_id:
            self._span_seq += 1
            span_block = encode_spans([{
                "id": self._span_base + self._span_seq,
                "parent": parent_span or None,
                "name": "worker_execute",
                "start_us": 0,
                "dur_us": int((time.perf_counter() - t0) * 1e6),
                "tags": {"shard": self.shard_id, "pid": os.getpid(),
                         "n_queries": len(queries)},
            }])
        send_frame(self.sock, OP_OK, len(results),
                   pack_reply(self.shard.data_epoch,
                              [encode_result_block(results),
                               encode_sketch_block(
                                   extract_sketch_frames(results)),
                               span_block]),
                   trace_id=trace_id, span=len(span_block))

    def _summary_npz(self) -> bytes:
        """A fresh exact routing summary, as npz bytes."""
        buf = io.BytesIO()
        np.savez(buf, **self.shard.summary().state_arrays())
        return buf.getvalue()

    def _handle_stats(self) -> None:
        stats = {
            "shard_id": self.shard_id,
            "n_live": self.shard.n_live,
            "pool_size": self.shard.pool_size,
            "n_repartitions": self.shard.engine.n_repartitions,
            "data_epoch": self.shard.data_epoch,
            "n_requests": self.n_requests,
        }
        send_frame(self.sock, OP_OK, 0,
                   pack_reply(self.shard.data_epoch,
                              [json.dumps(stats).encode()]))


def serve(fd: int, snapshot: str, shard_id: int) -> None:
    """Warm-start shard ``shard_id`` and serve frames on ``fd``."""
    shard = load_shard(snapshot, shard_id)
    sock = socket.socket(fileno=fd)
    try:
        ShardWorker(sock, shard).run()
    finally:
        sock.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="fleet worker: serve one warm-started shard over "
                    "an inherited socket (internal; spawned by the "
                    "fleet coordinator)")
    parser.add_argument("--fd", type=int, required=True,
                        help="inherited socketpair file descriptor")
    parser.add_argument("--snapshot", required=True,
                        help="save_sharded snapshot directory")
    parser.add_argument("--shard", type=int, required=True,
                        help="shard index this worker owns")
    args = parser.parse_args(argv)
    serve(args.fd, args.snapshot, args.shard)
    return 0


if __name__ == "__main__":
    sys.exit(main())
