"""Aggregate <-> sketch wiring: kinds, parameters and answer rendering.

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
  are identical by construction.
* :func:`sketch_from_bytes` reads a canonical blob back into a sketch;
  only the fleet wire (:mod:`repro.broker.frames`) makes and reads
  blobs.
"""

from __future__ import annotations

import math

from ..core.queries import AggFunc, Query, QueryResult
from .counted import CountedSketch, ExactCountSketch, QuantileSketch

__all__ = ["KIND_COUNTS", "KIND_QUANTILE", "SKETCH_HEIGHT", "SKETCH_KEY",
           "SKETCH_KIND", "new_sketch", "sketch_answer",
           "sketch_from_bytes"]

#: ``QueryResult.details`` key carrying the answer's sketch snapshot.
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


#: The quantile sample every engine builds with (a blob's header
#: carries its sketch's; only equal parameters merge): 2**-4 of the
#: distinct values.
SKETCH_HEIGHT = 4


def new_sketch(kind: int) -> CountedSketch:
    """Construct an empty sketch of ``kind`` with the engine parameters."""
    if kind == KIND_QUANTILE:
        return QuantileSketch(SKETCH_HEIGHT)
    if kind == KIND_COUNTS:
        return ExactCountSketch()
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


def sketch_answer(query: Query, sketch: CountedSketch) -> QueryResult:
    """Render the answer for ``query`` from one sketch state.

    The returned ``details`` carry a read-only snapshot of the state
    (under :data:`SKETCH_KEY`) so the answer can be re-merged upstream,
    and ``ci_available`` is false, as on VARIANCE/STDDEV - sketch
    answers have deterministic error bounds, not normal confidence
    intervals.  COUNT DISTINCT and TOPK read an exact-count sketch and
    are exact.
    """
    if query.agg is AggFunc.PERCENTILE:
        estimate = sketch.quantile(float(query.param))
        exact = sketch.exact and not math.isnan(estimate)
    elif query.agg is AggFunc.COUNT_DISTINCT:
        estimate, exact = len(sketch), True
    elif query.agg is AggFunc.TOPK:
        estimate, exact = sketch.top_mass(int(query.param)), True
    else:
        raise ValueError(f"{query.agg} is not a sketch aggregate")
    return QueryResult(float(estimate), 0.0, 0.0, exact=exact,
                       n_covered=sketch.n_total, n_partial=0,
                       ci_available=False,
                       details={SKETCH_KEY: sketch.snapshot()})
