"""Query model: rectangular predicates and aggregate queries.

A JanusAQP synopsis answers query templates of the form::

    SELECT agg(A) FROM D WHERE Rectangle(D.c1, ..., D.cd)

where ``agg`` is an :class:`AggFunc`, ``A`` is the aggregation
attribute and ``c1..cd`` are predicate attributes (paper, Section 3.1).
This module defines the geometric predicate (:class:`Rectangle`), the query
object (:class:`Query`) and the answer envelope (:class:`QueryResult`),
which carries the estimate together with its confidence interval and the
two variance components of Section 4.4.1.  What a query may ask is said
here, once: an aggregate's facts on its :class:`AggFunc` member, the rule
binding a query to a synopsis in :class:`QueryTemplate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, is_dataclass
from operator import attrgetter, le
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np


class AggFamily(enum.Enum):
    """The rule an aggregate is answered, merged and estimated by: the
    key of every per-family dispatch table (paper Sections 4.4, 6.6)."""

    ADDITIVE = "additive"   # SUM, COUNT: estimates and variances add
    RATIO = "ratio"         # AVG: reweighted by the normalizer n_q
    MOMENTS = "moments"     # VARIANCE, STDDEV: count, sum, sum of squares
    EXTREME = "extreme"     # MIN, MAX: the extremal candidate wins
    SKETCH = "sketch"       # mergeable per-column sketches, not the tree


class ParamRule(NamedTuple):
    """What a parameterized aggregate's :attr:`Query.param` must be."""

    symbol: str                         # its name in usage strings
    wants: str                          # the rule, as error text
    accepts: Callable[[float], bool]


_FRACTION = ParamRule("p", "fraction must be in [0, 1]",
                      lambda p: 0.0 <= p <= 1.0)
_INTEGRAL_K = ParamRule("k", "k must be an integer >= 1",
                        lambda k: k >= 1 and k % 1 == 0)


class AggFunc(enum.Enum):
    """Aggregation functions supported by a partition-tree synopsis.

    A member line declares all the rest of the system dispatches on:
    the wire string (its ``value``), its :class:`AggFamily`, its
    :class:`ParamRule` (``None``: no parameter) and whether it reads the
    aggregation column (COUNT does not, so it binds to untracked ones).

    VARIANCE and STDDEV are the composition the paper points at in
    Section 6.6 ("other aggregate functions such as STDDEV that can be
    composed using SUM and CNT"): they derive from the SUM, COUNT and
    sum-of-squares statistics every node already maintains.

    PERCENTILE, COUNT_DISTINCT and TOPK are the sketch-backed
    aggregates of :mod:`repro.sketch`: answered from mergeable
    per-engine sketches rather than the partition tree, with
    deterministic error bounds instead of normal confidence intervals.
    PERCENTILE and TOPK carry their parameter (the quantile fraction,
    the k) in :attr:`Query.param`.
    """

    family: AggFamily
    param_rule: Optional[ParamRule]
    reads_column: bool

    def __new__(cls, wire_name: str, family: AggFamily,
                param_rule: Optional[ParamRule] = None,
                reads_column: bool = True) -> "AggFunc":
        member = object.__new__(cls)
        member._value_ = wire_name
        member.family = family
        member.param_rule = param_rule
        member.reads_column = reads_column
        return member

    SUM = ("SUM", AggFamily.ADDITIVE)
    COUNT = ("COUNT", AggFamily.ADDITIVE, None, False)
    AVG = ("AVG", AggFamily.RATIO)
    MIN = ("MIN", AggFamily.EXTREME)
    MAX = ("MAX", AggFamily.EXTREME)
    VARIANCE = ("VARIANCE", AggFamily.MOMENTS)
    STDDEV = ("STDDEV", AggFamily.MOMENTS)
    PERCENTILE = ("PERCENTILE", AggFamily.SKETCH, _FRACTION)
    COUNT_DISTINCT = ("COUNT_DISTINCT", AggFamily.SKETCH)
    TOPK = ("TOPK", AggFamily.SKETCH, _INTEGRAL_K)

    def check_param(self, param: Optional[float]) -> None:
        """``ValueError`` unless ``param`` fits :attr:`param_rule`."""
        rule = self.param_rule
        if rule is None:
            if param is not None:
                raise ValueError(f"{self.value} does not take a parameter")
        elif param is None or not rule.accepts(float(param)):
            raise ValueError(f"{self.value} {rule.wants}, got {param!r}")


#: Aggregates answered from mergeable sketches, not the partition tree.
SKETCH_AGGS = frozenset(agg for agg in AggFunc
                        if agg.family is AggFamily.SKETCH)


def wire(cast: Callable, dtype: Optional[str] = None, many: bool = False,
         out: Optional[Callable] = None) -> dict:
    """``field(metadata=wire(...))``: the field crosses process boundaries.

    The one declaration every codec loops over (HTTP dict and broker
    line in :mod:`repro.broker.requests`, the fleet blocks in
    :mod:`repro.broker.frames`).  ``cast`` turns one wire scalar into
    the field's and ``out`` (default ``cast``) back; ``many`` marks a
    tuple of them; ``dtype`` is the little-endian column type in a
    fleet block (a query field without one is text, sent as an index
    into the block's name table).  A ``cast`` that is a wire
    dataclass is inlined (``Query.rect`` contributes ``lo``,
    ``hi``); a ``None`` default makes the field optional; a field
    without this metadata (``QueryResult.details``) never leaves its
    process.
    """
    return {"wire": (cast, dtype, many, out or cast)}


class WireField(NamedTuple):
    """One wire key of a dataclass (see :func:`wire`)."""

    key: str
    cast: Callable          # one wire scalar -> the field's scalar
    out: Callable           # ... and back, JSON-safe
    dtype: Optional[str]
    many: bool
    optional: bool
    get: Callable           # owning object -> the field's value


class WireSchema:
    """A dataclass's wire ``fields``, flat and in declaration order, and
    :meth:`build` / :meth:`build_many`, the way back from their values."""

    def __init__(self, cls, path: str = "") -> None:
        self.cls = cls
        self.fields: List[WireField] = []
        self._takes: List[Callable] = []    # one per dataclass field
        self._column_takes: List[Callable] = []     # ... for build_many
        declared = [f for f in fields(cls) if "wire" in f.metadata]
        if declared != list(fields(cls))[:len(declared)]:
            raise TypeError(f"{cls.__name__}: wire fields must lead")
        for f in declared:
            cast, dtype, many, out = f.metadata["wire"]
            if is_dataclass(cast):
                inlined = WireSchema(cast, f"{path}{f.name}.")
                self.fields += inlined.fields
                self._takes.append(inlined.build)
                self._column_takes.append(inlined.build_many)
                continue
            self.fields.append(WireField(
                f.name, cast, out, dtype, many, f.default is None,
                attrgetter(path + f.name)))
            self._takes.append(next)
            self._column_takes.append(next)

    def build(self, values: Iterator):
        """The dataclass from its wire field values, in ``fields``
        order (an inlined dataclass takes its run of them)."""
        return self.cls(*[take(values) for take in self._takes])

    def build_many(self, columns: Iterator[Sequence]) -> list:
        """:meth:`build` a whole block at once from its columns (one
        sequence of values per wire field, in ``fields`` order): every
        object still goes through the dataclass's constructor, without
        a per-object Python frame around it."""
        return list(map(self.cls, *[take(columns)
                                    for take in self._column_takes]))


@dataclass(frozen=True)
class Rectangle:
    """A closed axis-aligned box ``[lo_j, hi_j]`` in d dimensions.

    Rectangles serve three roles in the system: query predicates,
    partitioning conditions of tree nodes, and witness regions returned by
    the max-variance oracle.  All intervals are closed on both sides, which
    matches the paper's conjunctions of ``>=, <=, =`` clauses (an equality
    clause is a degenerate interval).
    """

    lo: Tuple[float, ...] = field(metadata=wire(float, "<f8", many=True))
    hi: Tuple[float, ...] = field(metadata=wire(float, "<f8", many=True))

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimensionality")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"empty interval [{a}, {b}] in rectangle")

    @property
    def dim(self) -> int:
        """Number of dimensions the rectangle constrains."""
        return len(self.lo)

    @staticmethod
    def unbounded(dim: int) -> "Rectangle":
        """The whole space: every point is contained."""
        return Rectangle((-math.inf,) * dim, (math.inf,) * dim)

    @staticmethod
    def from_bounds(bounds: Sequence[Tuple[float, float]]) -> "Rectangle":
        """Build from a list of ``(lo, hi)`` pairs, one per dimension."""
        los = tuple(float(b[0]) for b in bounds)
        his = tuple(float(b[1]) for b in bounds)
        return Rectangle(los, his)

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when the point lies inside (intervals are closed)."""
        return all(a <= x <= b for a, x, b in zip(self.lo, point, self.hi))

    def contains_points(self, points) -> np.ndarray:
        """Vectorized membership test for an ``(n, d)`` coordinate batch.

        Returns a boolean mask of length n; row i is True when
        ``contains_point(points[i])`` would be.  The batch ingestion path
        routes whole arrays through the partition tree with this test.
        """
        pts = np.asarray(points, dtype=np.float64)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def contains_rect(self, other: "Rectangle") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return all(a <= c and d <= b
                   for a, b, c, d in
                   zip(self.lo, self.hi, other.lo, other.hi))

    def intersects(self, other: "Rectangle") -> bool:
        """True when the rectangles share at least one point."""
        return all(a <= d and c <= b
                   for a, b, c, d in
                   zip(self.lo, self.hi, other.lo, other.hi))

    def split(self, dim: int, x: float) -> Tuple["Rectangle", "Rectangle"]:
        """Split into left (``coord <= x``) and right (``coord > x``) halves.

        The right half starts at ``nextafter(x, inf)`` so the two children
        are disjoint while their union covers the parent, preserving the
        partition-tree invariants of Section 2.3.1.
        """
        if not (self.lo[dim] <= x < self.hi[dim]):
            # x == hi would leave an empty right half; callers splitting
            # at a median guard this by falling back to the midpoint.
            raise ValueError(f"cannot split [{self.lo[dim]}, "
                             f"{self.hi[dim]}] at {x} on dim {dim}")
        left_hi = list(self.hi)
        left_hi[dim] = x
        right_lo = list(self.lo)
        right_lo[dim] = math.nextafter(x, math.inf)
        return (Rectangle(self.lo, tuple(left_hi)),
                Rectangle(tuple(right_lo), self.hi))

    def widths(self) -> Tuple[float, ...]:
        """Per-dimension side lengths ``hi_j - lo_j``."""
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"[{a:g}, {b:g}]" for a, b in zip(self.lo, self.hi))
        return f"Rect({parts})"


@dataclass(frozen=True)
class Query:
    """An aggregate query with a rectangular predicate.

    ``predicate_attrs`` names the columns the rectangle constrains, in the
    same order as the rectangle's dimensions.  ``attr`` is the aggregation
    attribute; it is ignored for COUNT.

    ``param`` is the parameterized aggregates' argument: the quantile
    fraction ``p`` in ``[0, 1]`` for PERCENTILE, the integral ``k >= 1``
    for TOPK.  Every other aggregate must leave it ``None`` - validated
    here so a malformed query fails at construction, not mid-batch.
    """

    agg: AggFunc = field(metadata=wire(
        lambda name: AggFunc(str(name).upper()), out=attrgetter("value")))
    attr: str = field(metadata=wire(str))
    predicate_attrs: Tuple[str, ...] = field(
        metadata=wire(str, many=True))
    rect: Rectangle = field(metadata=wire(Rectangle))
    param: Optional[float] = field(default=None,
                                   metadata=wire(float, "<f8"))

    def __post_init__(self) -> None:
        if len(self.predicate_attrs) != self.rect.dim:
            raise ValueError("predicate_attrs must match rectangle dims")
        self.agg.check_param(self.param)

    def with_agg(self, agg: AggFunc, attr: Optional[str] = None,
                 param: Optional[float] = None) -> "Query":
        """The same predicate with a different aggregation function/attr."""
        return Query(agg, attr if attr is not None else self.attr,
                     self.predicate_attrs, self.rect, param)


@dataclass(frozen=True)
class QueryTemplate:
    """What one synopsis may be asked: "(aggregation function,
    aggregation attribute, predicate attributes)" (paper Section 5.5),
    the function being any whose column the synopsis maintains.  Every
    engine exposes one as ``.template`` and calls :meth:`check` on each
    query at the top of ``query_many``; nothing else states the rule.
    """

    #: The column ``COUNT(*)`` binds to (``None`` for a bare tree).
    agg_attr: Optional[str]
    predicate_attrs: Tuple[str, ...]
    #: Columns with node statistics / with table-wide sketch state.
    stat_attrs: Tuple[str, ...]
    sketch_attrs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.agg_attr is not None and \
                self.agg_attr not in self.stat_attrs:
            raise ValueError("agg_attr must be tracked in stat_attrs")

    def problem(self, query: Query) -> Optional[str]:
        """Why ``query`` is off this template (``None``: it is on)."""
        if query.predicate_attrs != self.predicate_attrs:
            return (f"predicate attributes {list(query.predicate_attrs)} "
                    f"do not match this synopsis (template: "
                    f"{list(self.predicate_attrs)})")
        rect = query.rect
        # A NaN bound compares false both ways, so every node and shard
        # would look disjoint and SUM/COUNT would answer an exact zero.
        # Rectangle rejects lo > hi, so lo <= hi fails only on a NaN.
        if not all(map(le, rect.lo, rect.hi)):
            return (f"predicate rectangle has a NaN bound "
                    f"(lo={list(rect.lo)}, hi={list(rect.hi)})")
        agg = query.agg
        if agg.family is AggFamily.SKETCH:
            if query.attr not in self.sketch_attrs:
                return (f"no {agg.value} sketch is maintained for column "
                        f"{query.attr!r} (sketched: "
                        f"{list(self.sketch_attrs)})")
            # one sketch per column, not per region
            if any(lo != -math.inf or hi != math.inf
                   for lo, hi in zip(query.rect.lo, query.rect.hi)):
                return (f"{agg.value} is answered from a whole-column "
                        f"sketch and requires an unbounded predicate "
                        f"rectangle")
        elif agg.reads_column and query.attr not in self.stat_attrs:
            return (f"aggregation column {query.attr!r} is not tracked "
                    f"by this synopsis (tracked: "
                    f"{list(self.stat_attrs)})")
        return None

    def check(self, query: Query) -> None:
        """``ValueError`` with the reason unless ``query`` binds."""
        problem = self.problem(query)
        if problem is not None:
            raise ValueError(problem)


@dataclass
class QueryResult:
    """An estimate with its confidence interval.

    ``variance_catchup`` and ``variance_sample`` are the two error sources
    of Section 4.4.1 (nu_c from approximate node statistics, nu_s from the
    stratified leaf samples).  ``ci(z)`` combines them under the normal
    approximation.  ``exact`` is set when the answer provably has no
    approximation error: a sketch in its exact regime, a merge over no
    live shard, a static tree's full cover.  A dynamic tree's answer is
    never exact (its nodes hold catch-up estimates).

    The merge inputs ride as fields too: ``n_q`` is the population
    normalizer an AVG answer divided by, ``m_count`` / ``m_sum`` /
    ``m_sumsq`` the plug-in moments a VARIANCE/STDDEV answer was
    composed from (Section 6.6); both stay 0.0 on every other answer.
    ``ci_available`` is false on answers with no normal interval
    (VARIANCE/STDDEV, MIN/MAX, the sketch aggregates), whose
    :meth:`ci` bounds are then NaN.  ``details`` holds diagnostics
    only; it declares no :func:`wire` metadata, so no codec carries it
    wholesale.
    """

    estimate: float = field(metadata=wire(float, "<f8"))
    variance_catchup: float = field(default=0.0,
                                    metadata=wire(float, "<f8"))
    variance_sample: float = field(default=0.0,
                                   metadata=wire(float, "<f8"))
    exact: bool = field(default=False, metadata=wire(bool, "<i1"))
    n_covered: int = field(default=0, metadata=wire(int, "<i8"))
    n_partial: int = field(default=0, metadata=wire(int, "<i8"))
    n_q: float = field(default=0.0, metadata=wire(float, "<f8"))
    m_count: float = field(default=0.0, metadata=wire(float, "<f8"))
    m_sum: float = field(default=0.0, metadata=wire(float, "<f8"))
    m_sumsq: float = field(default=0.0, metadata=wire(float, "<f8"))
    ci_available: bool = field(default=True, metadata=wire(bool, "<i1"))
    details: dict = field(default_factory=dict)

    @property
    def variance(self) -> float:
        """Total estimator variance ``nu_c + nu_s``."""
        return self.variance_catchup + self.variance_sample

    def ci(self, z: float = 1.96) -> Tuple[float, float]:
        """Confidence interval ``estimate +/- z * sqrt(nu_c + nu_s)``;
        NaN bounds when :attr:`ci_available` is false."""
        half = self.ci_halfwidth(z)
        return (self.estimate - half, self.estimate + half)

    def ci_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of :meth:`ci` at confidence level ``z`` (NaN when
        the answer has no interval)."""
        if not self.ci_available:
            return math.nan
        return z * math.sqrt(max(self.variance, 0.0))


def relative_error(estimate: float, truth: float) -> float:
    """``|estimate - truth| / |truth|`` with the 0/0 convention of Sec 6.1.2.

    When the ground truth is zero the error is 0 if the estimate is also
    zero and infinity otherwise; benchmark workloads filter near-empty
    queries the same way the paper does for multi-dimensional templates.
    """
    if truth == 0:
        return 0.0 if estimate == 0 else math.inf
    return abs(estimate - truth) / abs(truth)
