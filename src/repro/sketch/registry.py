"""Aggregate <-> sketch wiring: kinds, blobs and answer rendering.

This module is the single place where the engine layers meet the
sketch package:

* :data:`SKETCH_KIND` names, per sketch-family :class:`~repro.core.
  queries.AggFunc` member, the sketch kind that backs it.
* :func:`sketch_answer` renders a :class:`~repro.core.queries.
  QueryResult` from a sketch state.  The single engine, the sharded
  merge rule and the fleet coordinator all call this one function, so a
  single-contributor pass-through, a merged answer and a wire-decoded
  answer are byte-identical by construction.
* :func:`merge_sketch_blobs` folds canonical blobs (the
  ``details["sketch"]`` payload that also rides the fleet's sketch
  side-frame) back into one sketch.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.queries import AggFunc, Query, QueryResult
from .counted import (CountedSketch, DistinctSketch, HeavyHitters,
                      QuantileSketch)

__all__ = ["KIND_DISTINCT", "KIND_HEAVY", "KIND_QUANTILE", "SKETCH_KEY",
           "SKETCH_KIND", "merge_sketch_blobs", "new_sketch",
           "sketch_answer", "sketch_empty_answer", "sketch_from_bytes"]

#: ``QueryResult.details`` key carrying a canonical sketch blob.
SKETCH_KEY = "sketch"

KIND_QUANTILE = QuantileSketch.KIND
KIND_DISTINCT = DistinctSketch.KIND
KIND_HEAVY = HeavyHitters.KIND

_SKETCH_CLASSES = {
    KIND_QUANTILE: QuantileSketch,
    KIND_DISTINCT: DistinctSketch,
    KIND_HEAVY: HeavyHitters,
}

#: The sketch kind backing each sketch-family aggregate.
SKETCH_KIND = {AggFunc.PERCENTILE: KIND_QUANTILE,
               AggFunc.COUNT_DISTINCT: KIND_DISTINCT,
               AggFunc.TOPK: KIND_HEAVY}


def new_sketch(kind: int, *, sketch_height: int, hll_bits: int,
               topk_capacity: int) -> CountedSketch:
    """Construct an empty sketch of ``kind`` from the config knobs."""
    if kind == KIND_QUANTILE:
        return QuantileSketch(sketch_height)
    if kind == KIND_DISTINCT:
        return DistinctSketch(hll_bits)
    if kind == KIND_HEAVY:
        return HeavyHitters(topk_capacity)
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
    :data:`SKETCH_KEY`) so the answer can be re-merged upstream, plus
    the ``ci: unavailable`` marker shared with VARIANCE/STDDEV -
    sketch answers have deterministic error bounds, not normal
    confidence intervals.
    """
    details = {"ci": "unavailable", SKETCH_KEY: sketch.to_bytes()}
    if query.agg is AggFunc.PERCENTILE:
        estimate = sketch.quantile(float(query.param))
        exact = sketch.exact and not math.isnan(estimate)
    elif query.agg is AggFunc.COUNT_DISTINCT:
        estimate = sketch.estimate()
        exact = sketch.n_total == 0
    elif query.agg is AggFunc.TOPK:
        estimate = sketch.top_mass(int(query.param))
        exact = sketch.exact
    else:
        raise ValueError(f"{query.agg} is not a sketch aggregate")
    return QueryResult(float(estimate), 0.0, 0.0, exact=exact,
                       n_covered=sketch.n_total, n_partial=0,
                       details=details)


def sketch_empty_answer(query: Query) -> QueryResult:
    """The merge-over-no-contributors answer (router pruned everyone).

    Mirrors what an engine with zero live rows answers from its empty
    sketch: an undefined (NaN, non-exact) percentile, and exact zeros
    for the counting sketches.
    """
    if query.agg is AggFunc.PERCENTILE:
        return QueryResult(math.nan, 0.0, 0.0, exact=False,
                           details={"ci": "unavailable"})
    return QueryResult(0.0, 0.0, 0.0, exact=True,
                       details={"ci": "unavailable"})
