"""Span-based request tracing with deterministic sampling.

A :class:`Tracer` lives on the server.  For each request it either
returns ``None`` (untraced - the common case, so the hot path pays
one lock-guarded counter increment) or a :class:`TraceContext` that
collects spans as the request crosses the batcher, the cache, the
routing planner, the per-shard executors and - over the binary broker
protocol - the fleet workers.  Sampling is a deterministic 1-in-N
counter rather than an RNG draw, so it is reproducible and JL501-safe
(no ``np.random`` outside engine seeding).

Span model: plain dicts, ``{"id", "parent", "name", "start_us",
"dur_us", "tags"}``.  Ids are integers unique within a trace; the
coordinator allocates small ids, fleet workers allocate from a
pid-derived base so remote spans cannot collide with local ones.
``parent`` is ``None`` for roots; the concurrency tests assert every
completed trace forms a connected forest (no span points at a missing
id).

Cross-thread fan-out cannot use the thread-local implicit parent
stack, so :meth:`TraceContext.span` takes an explicit ``parent=``;
fleet workers return their spans as a JSON sidecar on the reply frame
(:func:`encode_spans` / :func:`decode_spans`) which the coordinator
grafts under its ``shard_execute`` span.

Completed traces (immutable dicts) go into a bounded ring buffer;
``/debug/traces`` serves a snapshot taken under the same lock, so a
reader can never observe a half-built trace.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Dict, Iterator, List, Optional

from collections import deque

__all__ = ["Tracer", "TraceContext", "maybe_span", "encode_spans",
           "decode_spans"]

_UNSET = object()

#: Completed traces a :class:`Tracer` keeps for ``/debug/traces``.
TRACE_CAPACITY = 256


def encode_spans(spans: List[dict]) -> bytes:
    """Compact JSON codec for the reply-frame span sidecar."""
    return json.dumps(spans, separators=(",", ":")).encode("utf-8")


def decode_spans(blob: bytes) -> List[dict]:
    spans = json.loads(bytes(blob).decode("utf-8"))
    if not isinstance(spans, list):
        raise ValueError("span sidecar must be a JSON list")
    return spans


class TraceContext:
    """Collects the spans of one request; thread-safe.

    Within one thread, ``with ctx.span("name"):`` nests automatically
    via a thread-local parent stack.  Fan-out code passes ``parent=``
    explicitly because child work runs on executor threads.  ``note``
    stashes non-timing facts (routing subsets, live shards) that the
    EXPLAIN report reads back.
    """

    def __init__(self, trace_id: int,
                 tracer: Optional["Tracer"] = None) -> None:
        self.trace_id = int(trace_id)
        self._tracer = tracer
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._spans: List[dict] = []
        self._notes: Dict[str, object] = {}
        self._next_id = 0
        self._tls = threading.local()
        self._finished = False

    # -- span plumbing ------------------------------------------------- #
    def _alloc_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _implicit_parent(self) -> Optional[int]:
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: object = _UNSET,
             **tags: object) -> Iterator[dict]:
        """Time a block; yields the span dict (``span["id"]`` is the
        parent id for cross-thread children; callers may add tags)."""
        if parent is _UNSET:
            parent = self._implicit_parent()
        span = {"id": self._alloc_id(),
                "parent": parent,
                "name": name,
                "start_us": int((time.perf_counter() - self._t0) * 1e6),
                "dur_us": 0,
                "tags": dict(tags)}
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(span["id"])
        start = time.perf_counter()
        try:
            yield span
        finally:
            span["dur_us"] = int((time.perf_counter() - start) * 1e6)
            stack.pop()
            with self._lock:
                self._spans.append(span)

    def add_span(self, name: str, dur_us: int,
                 parent: object = _UNSET, **tags: object) -> int:
        """Record an already-measured duration (e.g. executor queue
        wait) as a span; returns its id."""
        if parent is _UNSET:
            parent = self._implicit_parent()
        span = {"id": self._alloc_id(),
                "parent": parent,
                "name": name,
                "start_us": int((time.perf_counter() - self._t0) * 1e6),
                "dur_us": int(dur_us),
                "tags": dict(tags)}
        with self._lock:
            self._spans.append(span)
        return span["id"]

    def add_foreign_spans(self, spans: List[dict],
                          default_parent: Optional[int]) -> None:
        """Graft spans decoded from a worker reply.  Remote span ids
        come from a pid-derived base (see ``service.worker``) so they
        cannot collide with local ids; a remote span without a parent
        is attached under ``default_parent``."""
        cleaned = []
        for span in spans:
            span = dict(span)
            if span.get("parent") in (None, 0):
                span["parent"] = default_parent
            cleaned.append(span)
        with self._lock:
            self._spans.extend(cleaned)

    # -- annotations --------------------------------------------------- #
    def note(self, key: str, value: object) -> None:
        with self._lock:
            self._notes[key] = value

    @property
    def notes(self) -> Dict[str, object]:
        with self._lock:
            return dict(self._notes)

    # -- completion ---------------------------------------------------- #
    def finish(self, **tags: object) -> dict:
        """Freeze into an immutable trace dict and record it with the
        owning tracer (if any).  Idempotent-hostile on purpose: a
        double finish is a bug."""
        with self._lock:
            if self._finished:
                raise RuntimeError("trace finished twice")
            self._finished = True
            spans = [dict(s) for s in self._spans]
        trace = {
            "trace_id": f"{self.trace_id:x}",
            "duration_us": int((time.perf_counter() - self._t0) * 1e6),
            "n_spans": len(spans),
            "spans": spans,
        }
        trace.update(tags)
        if self._tracer is not None:
            self._tracer.record(trace)
        return trace


class Tracer:
    """Deterministic 1-in-N sampler + bounded completed-trace ring.

    ``sample_every=0`` disables sampling entirely; forced traces
    (``"explain": true`` or an ``X-Janus-Trace`` header) still run.
    The ring holds the last :data:`TRACE_CAPACITY` fully-built trace
    dicts only - ``record`` appends one finished object under the lock
    and ``snapshot`` copies the deque under the same lock, so
    ``/debug/traces`` can never tear mid-write.
    """

    def __init__(self, sample_every: int = 64) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = int(sample_every)
        self._lock = threading.Lock()
        self._seen = 0
        self._minted = 0
        self._traces: deque = deque(maxlen=TRACE_CAPACITY)

    def _mint_id(self) -> int:
        # pid-salted so ids from concurrently tested servers differ;
        # no RNG (JL501) and no wall clock (reproducible).
        self._minted += 1
        return ((os.getpid() & 0xFFFFFF) << 40) | self._minted

    def sample(self, force: bool = False,
               trace_id: Optional[int] = None
               ) -> Optional[TraceContext]:
        """Return a context for this request, or ``None`` to skip it."""
        with self._lock:
            # Count first, then test: the first sampled request is the
            # N-th, not the 1st, so short-lived servers (tests, smoke
            # runs) keep an untraced hot path unless they force.
            self._seen += 1
            take = force or (self.sample_every > 0
                             and self._seen % self.sample_every == 0)
            if not take:
                return None
            tid = trace_id if trace_id else self._mint_id()
        return TraceContext(tid, tracer=self)

    def record(self, trace: dict) -> None:
        with self._lock:
            self._traces.append(trace)

    def snapshot(self) -> List[dict]:
        with self._lock:
            return list(self._traces)


#: What an untraced ``maybe_span`` hands back (``as`` target: ``None``).
_NO_SPAN = nullcontext()


def maybe_span(ctx: Optional[TraceContext], name: str,
               parent: object = _UNSET,
               **tags: object) -> ContextManager[Optional[dict]]:
    """``ctx.span`` when tracing, a free no-op when ``ctx`` is None -
    lets engine code carry instrumentation with zero overhead on the
    untraced hot path."""
    if ctx is None:
        return _NO_SPAN
    return ctx.span(name, parent=parent, **tags)
