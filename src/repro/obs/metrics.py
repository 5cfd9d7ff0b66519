"""Central metrics registry with Prometheus text exposition.

Every metric the project emits is declared once in :data:`CATALOG`
(name -> (type, help)); creating an instrument with a name outside the
table raises, and the janus-lint ``obs-metrics`` pass (JL601/JL602)
statically enforces that no module outside this file invents metric
names.  That single table is what keeps ``/metrics`` one consistent
``janus_*`` namespace instead of the ad-hoc counter dicts it replaced.

Three instrument kinds:

``Counter``
    Monotone ``inc()``.

``Gauge``
    ``set()`` / ``inc()``, last-write-wins.

``Histogram``
    Fixed cumulative buckets plus a bounded window of raw
    observations, so ``percentile(0.99)`` is *exact* over the last
    ``window`` samples instead of bucket-interpolated - the property
    the stall-gate benchmark relies on.

A registry hands out **the same instrument** for repeated
``(name, labels)`` registrations, which is what lets a restarted fleet
worker keep accumulating into the counters of the shard slot it
replaced.  All instruments are thread-safe.

:func:`render_exposition` merges any number of registries into one
Prometheus text page (HELP/TYPE comments, escaped label values,
``_bucket``/``_sum``/``_count`` histogram series) and
:func:`parse_exposition` validates that format back into families -
the round trip is the exposition-correctness test and the CI smoke
check.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_exposition",
    "parse_exposition",
]

# --------------------------------------------------------------------- #
# canonical metric table
# --------------------------------------------------------------------- #
#: The one canonical table of metric names.  janus-lint JL601 rejects
#: any registry call whose name is not a key here; JL602 rejects
#: ``janus_*`` string literals outside this module that are not keys
#: here.  Keep it sorted by family prefix.
CATALOG = {
    # ---- service layer (owned by AQPServer) ----
    "janus_service_uptime_seconds":
        ("gauge", "Seconds since the server started."),
    "janus_service_requests_total":
        ("counter", "HTTP requests by route."),
    "janus_service_bad_requests_total":
        ("counter", "Rejected requests (4xx)."),
    "janus_service_request_seconds":
        ("histogram", "End-to-end HTTP request latency."),
    "janus_service_slow_queries_total":
        ("counter", "Requests over the --slow-query-ms threshold."),
    "janus_service_traces_total":
        ("counter", "Completed traces recorded in the ring buffer."),
    "janus_service_explain_requests_total":
        ("counter", "Query/SQL requests with \"explain\": true."),
    "janus_service_engine_rows":
        ("gauge", "Live rows in the engine at scrape time."),
    "janus_service_engine_data_epoch":
        ("gauge", "Engine data epoch at scrape time."),
    "janus_service_batches_total":
        ("counter", "Micro-batches flushed."),
    "janus_service_batched_queries_total":
        ("counter", "Queries admitted through the micro-batcher."),
    "janus_service_batch_max_size":
        ("gauge", "Largest micro-batch flushed so far."),
    "janus_service_batch_flush_full_total":
        ("counter", "Flushes triggered by a full batch."),
    "janus_service_batch_flush_linger_total":
        ("counter", "Flushes triggered by the linger deadline behind "
                    "a busy lane."),
    "janus_service_batch_flush_idle_total":
        ("counter", "Flushes that left at once because nothing was "
                    "in flight."),
    "janus_service_batch_flush_drain_total":
        ("counter", "Flushes released by an in-flight batch "
                    "completing."),
    "janus_service_batch_wait_seconds":
        ("histogram", "Time a query sat parked before its engine call "
                      "started."),
    "janus_service_batch_isolated_total":
        ("counter", "Queries re-run solo after a poisoned batch."),
    "janus_service_cache_hits_total":
        ("counter", "Result-cache hits."),
    "janus_service_cache_misses_total":
        ("counter", "Result-cache misses."),
    "janus_service_cache_stores_total":
        ("counter", "Result-cache stores."),
    "janus_service_cache_rejected_stores_total":
        ("counter", "Stores rejected by the epoch-change guard."),
    "janus_service_cache_evictions_total":
        ("counter", "Result-cache LRU evictions."),
    "janus_service_workers":
        ("gauge", "Fleet worker processes configured."),
    "janus_service_workers_alive":
        ("gauge", "Fleet worker processes currently alive."),
    # ---- engine stalls (owned by JanusAQP / ShardedJanusAQP) ----
    "janus_engine_reoptimize_seconds":
        ("histogram", "Full reoptimize duration (per shard)."),
    "janus_engine_reopt_blocking_seconds":
        ("histogram", "Lock-held portion of reoptimize."),
    "janus_engine_ingest_stall_seconds":
        ("histogram", "Per-batch insert/delete time under the "
                      "engine lock."),
    "janus_engine_repartition_seconds":
        ("histogram", "Partial repartition duration."),
    "janus_engine_trigger_checks_total":
        ("counter", "Drift checks that came due, by outcome (none / "
                    "rejected / committed / forced / error)."),
    "janus_engine_candidate_eval_seconds":
        ("histogram", "Candidate evaluation under the engine lock, by "
                      "stage (m_r / partition / commit_test)."),
    "janus_engine_rebalance_seconds":
        ("histogram", "Cross-shard rebalance duration."),
    # ---- routing (owned by RoutingStats) ----
    "janus_routing_queries_total":
        ("counter", "Queries that went through the shard planner."),
    "janus_routing_routed_queries_total":
        ("counter", "Planner queries answered by a shard subset."),
    "janus_routing_broadcast_queries_total":
        ("counter", "Planner queries broadcast to all live shards."),
    "janus_routing_pruned_shard_queries_total":
        ("counter", "Per-shard executions the planner skipped."),
    "janus_routing_shards_touched_total":
        ("counter", "Planner queries by number of shards touched."),
    # ---- fleet transport (owned by RemoteShard) ----
    "janus_fleet_worker_requests_total":
        ("counter", "Broker requests per fleet worker."),
    "janus_fleet_worker_bytes_sent_total":
        ("counter", "Bytes sent to each fleet worker."),
    "janus_fleet_worker_bytes_received_total":
        ("counter", "Bytes received from each fleet worker."),
    "janus_fleet_worker_restarts_total":
        ("counter", "Crash-recovery restarts per fleet worker."),
    "janus_fleet_worker_request_seconds":
        ("histogram", "Broker round-trip latency per fleet worker."),
}

#: Default histogram buckets (seconds): 100us .. 5s, the range every
#: latency in this stack lives in.
DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Raw observations kept per histogram child for exact percentiles.
DEFAULT_WINDOW = 1024

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _format_value(value: float) -> str:
    """Render integral values without a trailing ``.0``.

    Keeps historical series like ``janus_service_batches_total 1``
    byte-identical to the pre-registry hand-rolled exposition.
    """
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def _render_labels(items: Iterable[Tuple[str, str]]) -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in items]
    return "{" + ",".join(parts) + "}" if parts else ""


# --------------------------------------------------------------------- #
# instruments
# --------------------------------------------------------------------- #
class Counter:
    """Monotone counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(Counter):
    """Last-write-wins instantaneous value."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class Histogram:
    """Fixed cumulative buckets + bounded raw window.

    ``observe`` is O(n_buckets); ``percentile`` sorts the raw window
    (bounded at ``window`` samples) so p50/p95/p99 readouts are exact
    over recent history rather than bucket-interpolated.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count",
                 "_window")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                 window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._window: deque = deque(maxlen=window)

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self._sum += v
            self._count += 1
            self._window.append(v)
            for i, bound in enumerate(self.buckets):
                if v <= bound:
                    self._counts[i] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Exact quantile (nearest-rank) over the raw window; 0.0 when
        empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        with self._lock:
            window = sorted(self._window)
        if not window:
            return 0.0
        rank = min(len(window) - 1, int(q * len(window)))
        return window[rank]

    def snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count


class _Family:
    """One metric name: type, help and per-labelset children."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class MetricsRegistry:
    """Instrument factory keyed by ``(name, labels)``.

    Names must be :data:`CATALOG` keys with the catalogued type;
    re-registering an existing ``(name, labels)`` pair returns the
    same instrument, so components can look instruments up on the hot
    path without holding references and restarted fleet workers keep
    their predecessor's totals.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- factories ----------------------------------------------------- #
    def counter(self, name: str, **labels: str) -> Counter:
        return self._child(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._child(name, "gauge", labels, Gauge)

    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  window: int = DEFAULT_WINDOW,
                  **labels: str) -> Histogram:
        return self._child(name, "histogram", labels,
                           lambda: Histogram(buckets, window))

    def _child(self, name, kind, labels, factory):
        entry = CATALOG.get(name)
        if entry is None:
            raise ValueError(
                f"metric {name!r} is not in the obs.metrics CATALOG; "
                "register it there (janus-lint JL601)")
        if entry[0] != kind:
            raise ValueError(
                f"metric {name!r} is catalogued as {entry[0]!r}, "
                f"not {kind!r}")
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"bad label name: {key!r}")
        key = _labels_key({k: str(v) for k, v in labels.items()})
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, entry[1])
                self._families[name] = family
            child = family.children.get(key)
            if child is None:
                child = factory()
                family.children[key] = child
            return child

    # -- exposition ---------------------------------------------------- #
    def collect(self) -> List[_Family]:
        """Snapshot of families (shared children; values are read
        thread-safely at render time)."""
        with self._lock:
            return list(self._families.values())

    def render(self) -> str:
        return render_exposition(self)


def render_exposition(*registries: MetricsRegistry) -> str:
    """Merge registries into one Prometheus text page.

    Families are sorted by name; HELP and TYPE comments are emitted
    once per family; a family appearing in several registries (e.g.
    the same histogram name with different label sets) has its
    children merged.
    """
    merged: Dict[str, _Family] = {}
    for registry in registries:
        for family in registry.collect():
            have = merged.get(family.name)
            if have is None:
                have = _Family(family.name, family.kind, family.help)
                merged[family.name] = have
            have.children.update(family.children)
    lines: List[str] = []
    for name in sorted(merged):
        family = merged[name]
        lines.append(f"# HELP {name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {name} {family.kind}")
        for key in sorted(family.children):
            child = family.children[key]
            if family.kind == "histogram":
                counts, total, count = child.snapshot()
                for bound, cumulative in zip(child.buckets, counts):
                    labelled = _render_labels(
                        list(key) + [("le", _format_value(bound))])
                    lines.append(
                        f"{name}_bucket{labelled} {cumulative}")
                labelled = _render_labels(list(key) + [("le", "+Inf")])
                lines.append(f"{name}_bucket{labelled} {count}")
                suffix = _render_labels(key)
                lines.append(f"{name}_sum{suffix} "
                             f"{_format_value(total)}")
                lines.append(f"{name}_count{suffix} {count}")
            else:
                lines.append(f"{name}{_render_labels(key)} "
                             f"{_format_value(child.value)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# exposition parser (tests + CI smoke)
# --------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\Z")
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"'
    r"\s*(?:,|\Z)")


def _unescape_label(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_PAIR_RE.match(text, pos)
        if match is None:
            raise ValueError(f"malformed label block: {text!r}")
        labels[match.group("key")] = _unescape_label(match.group("val"))
        pos = match.end()
    return labels


def _base_family(name: str, types: Dict[str, str]) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return name


def parse_exposition(text: str) -> Dict[str, dict]:
    """Parse + validate a Prometheus text page.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value), ...]}}``.  Raises :class:`ValueError` on malformed lines,
    samples with no preceding ``# TYPE``, or HELP/TYPE after the
    family's first sample - the checks the exposition-correctness
    satellite hangs off.
    """
    families: Dict[str, dict] = {}
    types: Dict[str, str] = {}
    sampled: set = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: bad comment {line!r}")
            _, kind, name = parts[:3]
            rest = parts[3] if len(parts) > 3 else ""
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad name {name!r}")
            if name in sampled:
                raise ValueError(
                    f"line {lineno}: {kind} for {name!r} after its "
                    "samples")
            entry = families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            if kind == "TYPE":
                if rest not in ("counter", "gauge", "histogram",
                                "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: bad type {rest!r}")
                entry["type"] = rest
                types[name] = rest
            else:
                entry["help"] = rest
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: bad sample {line!r}")
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad value {match.group('value')!r}")
        labels = _parse_labels(match.group("labels") or "")
        base = _base_family(name, types)
        if base not in families or families[base]["type"] is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE")
        sampled.add(base)
        families[base]["samples"].append((name, labels, value))
    return families
