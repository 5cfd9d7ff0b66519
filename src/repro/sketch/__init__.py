"""Mergeable sketches backing the PERCENTILE/COUNT_DISTINCT/TOPK aggregates.

Every sketch in this package is a *canonical function of the live value
multiset* of one column: its state depends only on which values are
currently live (insert minus delete), never on arrival order, shard
placement or merge order.  That single design decision buys the three
contracts the sharded engine and the process fleet gate on:

* **merge commutativity/associativity** - merging per-shard sketches in
  any order yields byte-identical state, because the merged state is
  the sketch of the union multiset;
* **sharded == single-engine identity** - a fleet of shards over a
  disjoint row partition merges to exactly the single engine's sketch;
* **deletability** - a delete is an exact multiset decrement, so
  interleaved insert/delete streams stay consistent without tombstones.

Two sketches share one counted-value core (:mod:`.counted`):

* :class:`~repro.sketch.counted.QuantileSketch` - a KLL-style level
  sampler: a value is retained iff its 64-bit hash has at least
  ``height`` trailing zero bits, giving an expected ``2**-height``
  sample of the distinct values at weight ``2**height``.
* :class:`~repro.sketch.counted.ExactCountSketch` - every live value
  with its exact count.  COUNT DISTINCT is its length and TOPK its
  top-k counts, both exact.

:mod:`.registry` maps aggregates to sketch kinds and renders
:class:`~repro.core.queries.QueryResult` answers that are shared
verbatim by the single engine, the sharded merge and the fleet wire.
An answer carries a read-only snapshot of the sketch it was read from;
only the fleet wire turns one into canonical bytes and back.
"""

from .counted import CountedSketch, ExactCountSketch, QuantileSketch
from .hashing import hash_floats, sampled
from .registry import (KIND_COUNTS, KIND_QUANTILE, SKETCH_KEY,
                       SKETCH_KIND, new_sketch, sketch_answer,
                       sketch_from_bytes)

__all__ = [
    "CountedSketch", "ExactCountSketch", "QuantileSketch", "KIND_COUNTS",
    "KIND_QUANTILE", "SKETCH_KEY", "SKETCH_KIND", "hash_floats",
    "new_sketch", "sampled", "sketch_answer", "sketch_from_bytes",
]
