"""Process-per-shard serving fleet: the coordinator side.

:class:`FleetCoordinator` is :class:`~repro.core.sharded.ShardedJanusAQP`
- the same placement map, planner, fan-out, ``insert_many`` /
``delete_many`` / ``reoptimize`` / ``query_many`` bodies and merge -
built over :class:`RemoteShard` handles instead of in-process shards:
each shard's synopsis lives in its own **worker process**
(:mod:`repro.service.worker`), reached over the length-prefixed binary
protocol of :mod:`repro.broker.frames`.  N workers mean N interpreters
and N GILs, so shard work genuinely overlaps on multi-core hosts -
the in-process fan-out's thread pool only overlaps the numpy kernels.
This module adds what only a process boundary needs: the wire handle,
write-ahead journals, supervision and the fleet health/stat reports.

The answer contract is **bit-identity** with the in-process engine:
workers warm-start from the same
:func:`~repro.core.persist.save_sharded` snapshot (through the same
restore as ``load_sharded``) and replay the identical per-shard
operation sequence, so every per-shard answer - and therefore every
merged answer - is byte-for-byte what ``load_sharded(...)`` of the same
snapshot would produce (``tests/test_fleet.py`` and
``tests/test_coordinator_contract.py`` gate this for every aggregate
through interleaved insert/delete/reoptimize).

Crash safety: every mutation is appended to its shard's **journal
before it is sent**, and the handle's mirrors (local-tid counter, live
count, epoch) advance whether or not the worker is up - local tids are
deterministic, so the mutation's effect is known without the worker's
reply.  A dead worker therefore never loses a mutation: the supervisor
respawns it from the pristine snapshot, replays the journal
(exactly-once - the crashed process's partial state is discarded
wholesale), re-adopts an exact routing summary and only then lets
traffic through.  Queries that need a dead shard fail with
:class:`FleetUnavailableError` (a 503 at the HTTP layer, see
:mod:`repro.service.server`) rather than a wrong or torn answer;
queries the router proves don't need that shard keep being answered.

Locking: each handle's reentrant ``lock`` serializes journal-append +
frame send + respawn, so the journal order always equals the
worker-applied order (replay determinism); the coordinator holds it
across a mutation and its routing-summary upkeep, exactly as it holds
an in-process shard's engine lock.  A handle's small ``_mirror_lock``
guards its counter mirrors so size/epoch reads never wait behind a
long round trip.  The order is always shard lock -> mirror lock, never
the reverse.
"""

from __future__ import annotations

import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..broker.frames import (HEADER, OP_DELETE, OP_ERR, OP_INSERT,
                             OP_PING, OP_QUERY, OP_REOPT, OP_SHUTDOWN,
                             OP_STATS, OP_SUMMARY, RESULT_DTYPE,
                             attach_sketch_frames, decode_result_block,
                             decode_sketch_block, encode_query_block,
                             recv_frame, send_frame, split_reply)
from ..core.persist import read_sharded_manifest
from ..core.queries import Query, QueryResult
from ..core.routing import ShardSummary
from ..core.sharded import ShardedJanusAQP
from ..obs.logs import log_event
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, decode_spans, maybe_span

__all__ = ["FleetCoordinator", "FleetUnavailableError", "RemoteShard"]


class FleetUnavailableError(RuntimeError):
    """A query needs a shard whose worker is down.

    The serving tier maps this to **503 Service Unavailable**: the
    answer would be wrong without the shard, so the only honest
    responses are a correct one or an explicit refusal.  The
    supervisor restarts the worker within one supervision cycle;
    clients retry.
    """


class _WorkerDied(ConnectionError):
    """Internal: the worker socket broke mid-request (crash or kill)."""


#: Exception types a worker ERR frame may carry back across the wire.
_EXC_TYPES = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
    "NotImplementedError": NotImplementedError,
}


class RemoteShard:
    """One worker process behind the coordinator's shard seam.

    Owns the subprocess, the socketpair end, the per-worker wire
    counters, the write-ahead journal and the mirrors of the worker's
    state (next local tid, live rows, epoch) that let mutations commit
    while the worker is down.  ``request`` is the only I/O path: one
    frame out, one reply in, under :attr:`lock`, so concurrent callers
    (data path vs supervisor ping) never interleave frames.

    Parameters beyond the worker address are the shard's state in the
    snapshot it warm-starts from: ``next_local`` (its table's next
    local tid), ``n_live``, whether it is ``initialized``, and
    ``n_pred_attrs`` (row width of the predicate coordinates a delete
    hands back).
    """

    #: Seam fact the coordinator's dispatch reads: every call here
    #: waits on a socket while the worker's interpreter does the work,
    #: so calls to several shards overlap on the coordinator's pool.
    blocks_on_io = True

    def __init__(self, snapshot: Union[str, Path], shard_id: int,
                 next_local: int, n_live: int, initialized: bool,
                 n_pred_attrs: int, timeout: float = 120.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.snapshot = Path(snapshot)
        self.shard_id = int(shard_id)
        self.timeout = float(timeout)
        self._n_pred_attrs = int(n_pred_attrs)
        #: Journal append + frame send + respawn happen under this
        #: lock, so journal order always equals worker-applied order
        #: and a restart's replay excludes nothing.
        self.lock = threading.RLock()
        self._proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None
        self._down = True  # lock-free-read: one-way until spawn/destroy
        self._mirror_lock = threading.Lock()
        self._next_local = int(next_local)  # guarded-by: _mirror_lock
        self._n_live = int(n_live)  # guarded-by: _mirror_lock
        self._initialized = bool(initialized)  # guarded-by: _mirror_lock
        self._epoch = 0  # guarded-by: _mirror_lock
        self._journal: List[tuple] = []  # guarded-by: _mirror_lock
        # Wire counters live in the coordinator's (thread-safe)
        # registry, one series per shard slot, so they keep
        # accumulating across restarts.
        registry = metrics if metrics is not None else MetricsRegistry()
        label = str(self.shard_id)
        self._c_requests = registry.counter(
            "janus_fleet_worker_requests_total", worker=label)
        self._c_bytes_sent = registry.counter(
            "janus_fleet_worker_bytes_sent_total", worker=label)
        self._c_bytes_received = registry.counter(
            "janus_fleet_worker_bytes_received_total", worker=label)
        self._c_restarts = registry.counter(
            "janus_fleet_worker_restarts_total", worker=label)
        self._h_latency = registry.histogram(
            "janus_fleet_worker_request_seconds", worker=label)

    # ------------------------------------------------------------------ #
    # process and wire
    # ------------------------------------------------------------------ #
    def spawn(self) -> None:
        """Start the worker process and hand it its socketpair end."""
        parent, child = socket.socketpair()
        env = dict(os.environ)
        # The worker must resolve the same `repro` package this
        # coordinator runs, wherever the parent found it.
        pkg_root = str(Path(__file__).resolve().parents[2])
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (pkg_root + os.pathsep + extra
                             if extra else pkg_root)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--fd", str(child.fileno()),
             "--snapshot", str(self.snapshot),
             "--shard", str(self.shard_id)],
            pass_fds=(child.fileno(),), env=env)
        child.close()
        parent.settimeout(self.timeout)
        self._sock = parent
        self._down = False

    def alive(self) -> bool:
        """Lock-free liveness: process up and socket not known-broken."""
        proc = self._proc
        return (not self._down and proc is not None
                and proc.poll() is None)

    def request(self, opcode: int, meta: int = 0, bufs: Sequence = (),
                trace: Optional[Tuple[int, int]] = None
                ) -> Tuple[int, memoryview, bytes]:
        """One round trip: returns ``(reply_meta, body, spans)``.

        ``trace`` is an optional ``(trace_id, parent_span_id)`` pair
        stamped into the request header; a traced OP_QUERY reply
        carries back a JSON span sidecar (its byte length rides the
        reply header's ``span`` field), returned stripped from
        ``body`` as the ``spans`` element (``b""`` when untraced).
        The worker's epoch, which prefixes every reply, folds into the
        mirror.  Raises :class:`_WorkerDied` on any transport failure
        (and marks the handle down for the supervisor); re-raises typed
        application errors the worker shipped in an ERR frame.
        """
        trace_id, parent_span = trace if trace is not None else (0, 0)
        with self.lock:
            if self._down or self._sock is None:
                raise _WorkerDied(f"worker {self.shard_id} is down")
            start = time.monotonic()
            try:
                sent = send_frame(self._sock, opcode, meta, bufs,
                                  trace_id=trace_id, span=parent_span)
                r_op, r_meta, payload, _r_trace, r_span = \
                    recv_frame(self._sock)
            except (OSError, EOFError, ValueError) as exc:
                self._down = True
                raise _WorkerDied(
                    f"worker {self.shard_id} transport failed: "
                    f"{exc}") from exc
            self._c_requests.inc()
            self._c_bytes_sent.inc(sent)
            self._c_bytes_received.inc(HEADER.size + len(payload))
            self._h_latency.observe(time.monotonic() - start)
        if r_op == OP_ERR:
            name, _, msg = bytes(payload).decode("utf-8").partition("\n")
            raise _EXC_TYPES.get(name, RuntimeError)(msg)
        epoch, body = split_reply(payload)
        # Worker epochs only fold in forward (monotone, restart-proof -
        # a replayed worker restarts its own count from the snapshot).
        with self._mirror_lock:
            self._epoch = max(self._epoch, int(epoch))
        spans = b""
        if r_span:
            spans = bytes(body[-r_span:])
            body = body[:-r_span]
        return r_meta, body, spans

    def _mutate(self, opcode: int, meta: int, bufs: Sequence,
                live_delta: int) -> Tuple[int, Optional[tuple]]:
        """Journal a mutation frame, then send it.

        The mirrors commit before the worker is asked - the epoch bump
        included, so the serving tier's result cache invalidates on
        every mutation even while the worker is down.  Returns the
        first local tid the frame's rows (if any) take and the
        worker's reply, ``None`` while it is down (the supervisor's
        replay applies the journaled frame on restart).
        """
        with self.lock:
            with self._mirror_lock:
                base = self._next_local
                if live_delta > 0:
                    self._next_local += live_delta
                    self._initialized = True
                self._n_live += live_delta
                self._epoch += 1
                self._journal.append((opcode, meta, bufs))
            try:
                return base, self.request(opcode, meta, bufs)
            except _WorkerDied:
                return base, None

    def restart(self) -> Optional[int]:
        """Respawn from the snapshot and replay the journal.

        Under :attr:`lock` throughout: mutations queue behind the
        replay (and keep journaling), so when it returns the fresh
        worker has applied *exactly* the journal - nothing lost,
        nothing twice.  Returns how many entries were replayed, or
        ``None`` when the worker is still down (the next supervision
        sweep tries again).
        """
        with self.lock:
            self.destroy(graceful=False)
            with self._mirror_lock:
                entries = list(self._journal)
            try:
                self.spawn()
                for frame in entries:
                    self.request(*frame)
            except (_WorkerDied, OSError):
                self.destroy(graceful=False)
                return None
            self._c_restarts.inc()
        return len(entries)

    def destroy(self, graceful: bool = True) -> None:
        """Tear the worker down (idempotent)."""
        with self.lock:
            if graceful and not self._down and self._sock is not None:
                try:
                    self._sock.settimeout(5.0)
                    send_frame(self._sock, OP_SHUTDOWN)
                    recv_frame(self._sock)
                except (OSError, EOFError, ValueError):
                    pass
            self._down = True
            if self._sock is not None:
                self._sock.close()
                self._sock = None
        if self._proc is not None:
            try:
                self._proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    close = destroy

    # ------------------------------------------------------------------ #
    # the shard seam
    # ------------------------------------------------------------------ #
    @property
    def initialized(self) -> bool:
        with self._mirror_lock:
            return self._initialized

    @property
    def n_live(self) -> int:
        with self._mirror_lock:
            return self._n_live

    @property
    def data_epoch(self) -> int:
        with self._mirror_lock:
            return self._epoch

    @property
    def restarts(self) -> int:
        """Crash-recovery restarts of this shard's worker so far."""
        return int(self._c_restarts.value)

    @property
    def pool_size(self) -> int:
        """The worker's pooled-sample size (one blocking round trip;
        0 while it is down)."""
        try:
            _m, body, _ = self.request(OP_STATS)
        except _WorkerDied:
            return 0
        return int(json.loads(bytes(body).decode())["pool_size"])

    def insert(self, rows: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Journal, then ship a raw row block.

        Local tids are mirrored deterministically (the worker's table
        assigns consecutive tids and never reuses them), so the batch
        commits even if the worker is mid-crash - it is journaled and
        replayed on restart; a live worker's reply is checked against
        the mirror and any divergence fails loudly.
        """
        rows = np.ascontiguousarray(rows)
        base, reply = self._mutate(OP_INSERT, rows.shape[1], [rows],
                                   rows.shape[0])
        local = np.arange(base, base + rows.shape[0], dtype=np.int64)
        if reply is None:
            return local, False
        flag, body, _ = reply
        if not np.array_equal(np.frombuffer(body, dtype=np.int64), local):
            raise RuntimeError(f"worker {self.shard_id} local tids "
                               f"diverged from the coordinator mirror")
        return local, bool(flag)

    def delete(self, local_tids: np.ndarray) -> Optional[np.ndarray]:
        """Journal, then ship raw local tids; the worker replies with
        the dying rows' predicate coordinates.  ``None`` while it is
        down: the delete is journaled, and the post-replay summary
        re-tightens what the skipped uncount left high."""
        local_tids = np.ascontiguousarray(local_tids)
        _, reply = self._mutate(OP_DELETE, 0, [local_tids],
                                -local_tids.shape[0])
        if reply is None:
            return None
        return np.frombuffer(reply[1], dtype="<f8").reshape(
            -1, self._n_pred_attrs)

    def reoptimize(self) -> None:
        """Journal, then rebuild in the worker's own process."""
        self._mutate(OP_REOPT, 0, (), 0)

    def summary(self) -> Optional[ShardSummary]:
        """The worker's fresh exact routing summary (``None`` while it
        is down: the post-restart adoption will cover it)."""
        try:
            _m, body, _ = self.request(OP_SUMMARY)
        except _WorkerDied:
            return None
        with np.load(io.BytesIO(bytes(body)),
                     allow_pickle=False) as archive:
            return ShardSummary.from_state_arrays(
                {key: archive[key]
                 for key in ("meta", "lo", "hi", "edges", "counts")})

    def query(self, queries: Sequence[Query],
              obs: Optional[TraceContext] = None,
              parent: Optional[int] = None) -> List[QueryResult]:
        """One sub-batch over the wire: one query block out
        (:func:`~repro.broker.frames.encode_query_block`, the queries'
        dimensionality in the frame's meta), a raw
        :data:`~repro.broker.frames.RESULT_DTYPE` block back.

        Traced requests stamp ``(trace_id, shard_execute span id)``
        into the frame header; the worker's reply spans come back as a
        sidecar and are grafted under this call's ``shard_execute``
        span.  ``parent`` is passed explicitly because fan-out runs on
        executor threads, where the thread-local parent stack is empty.
        """
        dim, payload = encode_query_block(queries)
        with maybe_span(obs, "shard_execute", parent=parent,
                        shard=self.shard_id,
                        n_queries=len(queries)) as sp:
            trace = (obs.trace_id, sp["id"]) if obs is not None else None
            try:
                n, body, span_blob = self.request(
                    OP_QUERY, dim, [payload], trace=trace)
            except _WorkerDied as exc:
                raise FleetUnavailableError(
                    f"shard {self.shard_id} worker is down; the fleet "
                    f"restarts it within one supervision cycle - retry"
                ) from exc
            if obs is not None and span_blob:
                obs.add_foreign_spans(decode_spans(span_blob),
                                      default_parent=sp["id"])
        # The fixed block is exactly n records; whatever follows is the
        # variable-length sketch sidecar of answers that carry blobs.
        fixed_end = n * RESULT_DTYPE.itemsize
        results = decode_result_block(body[:fixed_end])
        if len(results) != len(queries):
            raise RuntimeError(
                f"worker {self.shard_id} answered {len(results)} of "
                f"{len(queries)} queries")
        attach_sketch_frames(results, decode_sketch_block(body[fixed_end:]))
        return results

    def counters(self) -> Dict[str, object]:
        """Wire counters for ``/stats`` (p50 over recent requests)."""
        return {
            "requests": int(self._c_requests.value),
            "bytes_sent": int(self._c_bytes_sent.value),
            "bytes_received": int(self._c_bytes_received.value),
            "p50_seconds": self._h_latency.percentile(0.5),
            "restarts": self.restarts,
            "alive": self.alive(),
        }


class FleetCoordinator(ShardedJanusAQP):
    """``ShardedJanusAQP`` over one worker process per shard.

    Built from a :func:`~repro.core.persist.save_sharded` snapshot
    directory; the workers are spawned immediately and warm-start from
    it.  Everything on the data path is inherited; see the module
    docstring for the identity, crash-safety and locking contracts.
    What needs whole rows in hand (``rebalance_range``,
    ``ground_truth``, ``table.domain``, ``storage_cost_bytes``,
    ``save_sharded``) stays with the in-process engine.

    Parameters
    ----------
    snapshot_dir:
        A ``save_sharded`` snapshot; also the pristine state workers
        restart from after a crash (plus a journal replay).
    max_workers:
        Coordinator-side fan-out thread width (default: shard count
        capped at ``os.cpu_count()``, as for the in-process engine).
    supervise_interval:
        Seconds between supervisor health sweeps (ping + restart).
    request_timeout:
        Per-round-trip socket timeout; a worker that exceeds it is
        treated as crashed.
    supervise:
        Disableable for tests that drive :meth:`check_workers`
        manually.
    log_stream:
        Destination for structured one-line JSON event logs (worker
        restarts); ``None`` means ``sys.stderr``.
    """

    def __init__(self, snapshot_dir: Union[str, Path],
                 max_workers: Optional[int] = None,
                 supervise_interval: float = 1.0,
                 request_timeout: float = 120.0,
                 supervise: bool = True,
                 log_stream=None) -> None:
        m = read_sharded_manifest(snapshot_dir)
        if m.summaries is None:
            raise ValueError("fleet warm-start needs a v2 snapshot "
                             "(with routing summaries)")
        self.snapshot_dir = Path(snapshot_dir)
        self._log_stream = log_stream

        def spawn_worker(s: int) -> RemoteShard:
            shard = RemoteShard(
                self.snapshot_dir, s, m.table_next_tids[s],
                m.table_sizes[s], m.initialized[s],
                len(m.predicate_attrs), timeout=request_timeout,
                metrics=self.metrics)
            shard.spawn()
            return shard

        self._assemble(m.schema, m.agg_attr, m.predicate_attrs,
                       m.stat_attrs, m.config, m.route_attr, m.placement,
                       m.summaries, spawn_worker, max_workers)
        #: The per-shard worker handles.
        self.workers: List[RemoteShard] = self._shards
        self._stop_event = threading.Event()
        self._supervise_interval = float(supervise_interval)
        self._supervisor: Optional[threading.Thread] = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, daemon=True,
                name="janus-fleet-supervisor")
            self._supervisor.start()

    # ------------------------------------------------------------------ #
    # supervision and recovery
    # ------------------------------------------------------------------ #
    def _supervise(self) -> None:
        while not self._stop_event.wait(self._supervise_interval):
            self.check_workers()

    def check_workers(self) -> int:
        """One supervision sweep: ping, then restart the dead.

        Returns how many workers were restarted.  Public so tests and
        single-threaded embeddings can drive recovery deterministically
        (construct with ``supervise=False``).
        """
        restarted = 0
        for s in range(self.n_shards):
            shard = self._shards[s]
            if shard.alive():
                try:
                    shard.request(OP_PING)
                except _WorkerDied:
                    pass
            if not shard.alive() and self._restart(s):
                restarted += 1
        return restarted

    def _restart(self, s: int) -> bool:
        """Bring shard ``s`` back: respawn + journal replay, then adopt
        its post-replay exact routing summary (the mirror kept counting
        while the worker was down) before traffic resumes."""
        shard = self._shards[s]
        with shard.lock:
            replayed = None if self._stop_event.is_set() \
                else shard.restart()
            if replayed is None:
                return False
            self._refresh_summary(s)
        log_event(self._log_stream, "worker_restart", shard=s,
                  restarts=shard.restarts, journal_entries=replayed)
        return True

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def fleet_stats(self) -> Dict[str, object]:
        """Per-worker liveness, restart and wire counters for
        ``/stats``."""
        return {"n_workers": self.n_shards,
                "workers": {str(s): shard.counters()
                            for s, shard in enumerate(self._shards)}}

    def fleet_health(self) -> Dict[str, object]:
        """``/health`` payload: ok when every worker is up."""
        workers = {str(s): {"alive": shard.alive(),
                            "restarts": shard.restarts}
                   for s, shard in enumerate(self._shards)}
        n_alive = sum(w["alive"] for w in workers.values())
        return {
            "status": "ok" if n_alive == self.n_shards else "degraded",
            "mode": "fleet",
            "n_workers": self.n_shards,
            "n_alive": n_alive,
            "workers": workers,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop supervision, drain the workers, shut the pool down."""
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=2 * self._supervise_interval
                                  + 5.0)
            self._supervisor = None
        super().close()
