"""Aggregate <-> sketch wiring: kinds, blobs and answer rendering.

This module is the single place where the engine layers meet the
sketch package:

* :data:`SKETCH_KIND` names, per sketch-family :class:`~repro.core.
  queries.AggFunc` member, the sketch kind that backs it (COUNT
  DISTINCT and TOPK read the one exact-count kind).
* :func:`sketch_answer` renders a :class:`~repro.core.queries.
  QueryResult` from a sketch state.  The single engine, the sharded
  merge rule and the fleet coordinator all call this one function, so a
  single-contributor pass-through, a merged answer (over no
  contributors: the empty sketch's answer) and a wire-decoded answer
  are byte-identical by construction.
* :func:`merge_sketch_blobs` folds canonical blobs (the
  ``details["sketch"]`` payload that also rides an OP_QUERY reply) back
  into one sketch.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.queries import AggFunc, Query, QueryResult
from .counted import CountedSketch, ExactCountSketch, QuantileSketch

__all__ = ["HLL_BITS", "KIND_COUNTS", "KIND_QUANTILE", "SKETCH_HEIGHT",
           "SKETCH_KEY", "SKETCH_KIND", "TOPK_CAPACITY",
           "merge_sketch_blobs", "new_sketch", "sketch_answer",
           "sketch_from_bytes"]

#: ``QueryResult.details`` key carrying a canonical sketch blob.
SKETCH_KEY = "sketch"

KIND_QUANTILE = QuantileSketch.KIND
KIND_COUNTS = ExactCountSketch.KIND

_SKETCH_CLASSES = {
    KIND_QUANTILE: QuantileSketch,
    KIND_COUNTS: ExactCountSketch,
}

#: The sketch kind backing each sketch-family aggregate.
SKETCH_KIND = {AggFunc.PERCENTILE: KIND_QUANTILE,
               AggFunc.COUNT_DISTINCT: KIND_COUNTS,
               AggFunc.TOPK: KIND_COUNTS}


#: The parameters every engine builds its sketches with (a blob's
#: header carries its sketch's; only equal parameters merge).
SKETCH_HEIGHT = 4            # quantile sample: 2**-4 of the values
HLL_BITS = 11                # HLL: 2**11 registers, ~2.3% error
TOPK_CAPACITY = 64           # TOPK exact up to 64 distinct live values


def new_sketch(kind: int) -> CountedSketch:
    """Construct an empty sketch of ``kind`` with the engine parameters."""
    if kind == KIND_QUANTILE:
        return QuantileSketch(SKETCH_HEIGHT)
    if kind == KIND_COUNTS:
        return ExactCountSketch(HLL_BITS)
    raise ValueError(f"unknown sketch kind {kind}")


def sketch_from_bytes(blob: bytes) -> CountedSketch:
    """Deserialize a canonical blob into the right sketch class."""
    if not blob:
        raise ValueError("empty sketch blob")
    kind = blob[0]
    cls = _SKETCH_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown sketch kind {kind} in blob")
    return cls.from_bytes(blob)


def merge_sketch_blobs(blobs: Sequence[bytes]) -> CountedSketch:
    """Fold canonical blobs into one sketch (any order, same result)."""
    if not blobs:
        raise ValueError("no sketch blobs to merge")
    merged = sketch_from_bytes(blobs[0])
    for blob in blobs[1:]:
        merged.merge_in(sketch_from_bytes(blob))
    return merged


def sketch_answer(query: Query, sketch: CountedSketch) -> QueryResult:
    """Render the answer for ``query`` from one sketch state.

    The returned ``details`` carry the canonical blob (under
    :data:`SKETCH_KEY`) so the answer can be re-merged upstream, and
    ``ci_available`` is false, as on VARIANCE/STDDEV - sketch answers
    have deterministic error bounds, not normal confidence intervals.
    """
    if query.agg is AggFunc.PERCENTILE:
        estimate = sketch.quantile(float(query.param))
        exact = sketch.exact and not math.isnan(estimate)
    elif query.agg is AggFunc.COUNT_DISTINCT:
        estimate = sketch.estimate()
        exact = sketch.n_total == 0
    elif query.agg is AggFunc.TOPK:
        # Exact while the live values fit the capacity: a pure function
        # of the multiset, so every shard split renders the same flag.
        estimate = sketch.top_mass(int(query.param))
        exact = len(sketch) <= TOPK_CAPACITY
    else:
        raise ValueError(f"{query.agg} is not a sketch aggregate")
    return QueryResult(float(estimate), 0.0, 0.0, exact=exact,
                       n_covered=sketch.n_total, n_partial=0,
                       ci_available=False,
                       details={SKETCH_KEY: sketch.to_bytes()})

