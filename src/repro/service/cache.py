"""Epoch-tagged per-template LRU result cache for the serving tier.

A cached answer is only valid for the exact data version it was
computed against: any insert, delete, re-optimization or catch-up batch
changes what the synopsis would answer.  Rather than tracking
fine-grained invalidation, the engines expose a monotone ``data_epoch``
counter (bumped inside :class:`~repro.core.janus.JanusAQP` under its
lock, summed across the fleet by
:class:`~repro.core.sharded.ShardedJanusAQP`), and every cache key
embeds the epoch the answer was computed at:

* a **lookup** uses the engine's *current* epoch, so an entry from an
  older epoch can never be returned - staleness is structurally
  impossible, not policed;
* a **store** is accepted only when the epoch observed *before* the
  engine ran the query still equals the epoch *after* it finished
  (:meth:`ResultCache.store` takes both); if a write raced the query,
  the result is simply not cached;
* old-epoch entries become unreachable garbage and are recycled by the
  per-template LRU.

Entries are partitioned by template key
(:func:`repro.core.templates.template_key` - aggregation attribute +
predicate attributes), each template holding its own LRU of
``per_template`` entries, so one hot template cannot evict another
template's working set.  Hits return the cached
:class:`~repro.core.queries.QueryResult` without touching the synopsis
at all - no lock, no frontier traversal.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..core.queries import Query, QueryResult
from ..core.templates import TemplateKey, template_key
from ..obs.metrics import MetricsRegistry

__all__ = ["ResultCache", "cache_key"]

#: (agg, aggregation attr, parameter, rectangle bounds) - the
#: per-template part of a key; the epoch is prepended by the cache
#: itself.  The parameter distinguishes PERCENTILE(x, 0.5) from
#: PERCENTILE(x, 0.9) and TOPK(x, 5) from TOPK(x, 10), which share a
#: template but answer different questions.
QueryKey = Tuple[str, str, Optional[float], Tuple[float, ...],
                 Tuple[float, ...]]


def cache_key(query: Query) -> QueryKey:
    """Canonical hashable identity of one query within its template."""
    return (query.agg.value, query.attr, query.param,
            query.rect.lo, query.rect.hi)


class ResultCache:
    """Per-template LRU of epoch-tagged query results.

    Thread-safe: the server's asyncio loop and the executor threads that
    complete batches both touch it.  ``enabled=False`` turns every
    operation into a no-op miss, which is how the bit-identical serving
    mode (and its test) runs.
    """

    def __init__(self, per_template: int = 256,
                 enabled: bool = True,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if per_template < 1:
            raise ValueError("per_template must be >= 1")
        self.per_template = int(per_template)
        self.enabled = bool(enabled)
        # thread-safe instruments
        registry = metrics if metrics is not None else MetricsRegistry()
        self._c_hits = registry.counter("janus_service_cache_hits_total")
        self._c_misses = registry.counter(
            "janus_service_cache_misses_total")
        self._c_stores = registry.counter(
            "janus_service_cache_stores_total")
        # epoch moved while query in flight
        self._c_rejected = registry.counter(
            "janus_service_cache_rejected_stores_total")
        self._c_evicted = registry.counter(
            "janus_service_cache_evictions_total")
        self._lock = threading.Lock()
        self._lru: Dict[TemplateKey,  # guarded-by: _lock
                        "OrderedDict[Tuple[int, QueryKey], QueryResult]"
                        ] = {}

    def __len__(self) -> int:
        with self._lock:
            return sum(len(lru) for lru in self._lru.values())

    def stats(self) -> dict:
        """The ``/stats`` ``cache`` section, read off the registry."""
        hits, misses = int(self._c_hits.value), int(self._c_misses.value)
        return {"hits": hits, "misses": misses,
                "stores": int(self._c_stores.value),
                "rejected_stores": int(self._c_rejected.value),
                "evictions": int(self._c_evicted.value),
                "hit_ratio": hits / (hits + misses) if hits + misses
                else 0.0,
                "enabled": self.enabled, "entries": len(self)}

    def lookup(self, query: Query, epoch: int) -> Optional[QueryResult]:
        """The cached answer at exactly ``epoch``, or ``None``.

        Pass the engine's *current* ``data_epoch``: entries tagged with
        any other epoch can never match, so a hit is always fresh.
        """
        if not self.enabled:
            return None
        key = (int(epoch), cache_key(query))
        with self._lock:
            lru = self._lru.get(template_key(query))
            result = lru.get(key) if lru is not None else None
            if result is None:
                self._c_misses.inc()
                return None
            lru.move_to_end(key)
            self._c_hits.inc()
            return result

    def store(self, query: Query, result: QueryResult,
              epoch_before: int, epoch_after: int) -> bool:
        """Admit an answer computed between two epoch observations.

        ``epoch_before`` must be read from the engine before the query
        executed and ``epoch_after`` once it returned; a difference
        means a write interleaved and the result may reflect either
        side, so it is rejected (counted, never served).
        """
        if not self.enabled:
            return False
        if int(epoch_before) != int(epoch_after):
            self._c_rejected.inc()
            return False
        key = (int(epoch_after), cache_key(query))
        with self._lock:
            lru = self._lru.setdefault(template_key(query), OrderedDict())
            lru[key] = result
            lru.move_to_end(key)
            self._c_stores.inc()
            while len(lru) > self.per_template:
                lru.popitem(last=False)
                self._c_evicted.inc()
        return True

    def clear(self) -> None:
        with self._lock:
            self._lru.clear()
