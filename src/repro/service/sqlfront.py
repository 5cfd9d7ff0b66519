"""SQL front-end: a small SELECT-aggregate subset compiled to queries.

The serving tier accepts the textual form of the only query shape a
partition-tree synopsis answers (paper Section 3.1)::

    SELECT <AGG>(<col> | *) FROM <table>
      [WHERE <col> BETWEEN <num> AND <num>
         [AND <col> <op> <num>] ...]

* ``<AGG>`` is one of SUM, COUNT, AVG, MIN, MAX, VARIANCE, STDDEV
  (case-insensitive, like every keyword); ``COUNT(*)`` is allowed.
* The sketch-backed aggregates take their parameter inside the call:
  ``PERCENTILE(col, p)`` with ``p`` in ``[0, 1]``, ``TOPK(col, k)``
  with an integral ``k >= 1``, and ``COUNT(DISTINCT col)`` compiles to
  the COUNT_DISTINCT aggregate.  They are table-wide: a WHERE clause
  on a sketch aggregate is rejected by the engine, not here.
* The WHERE clause is a conjunction of range predicates over the
  engine's predicate attributes: ``BETWEEN`` (closed on both sides,
  like :class:`~repro.core.queries.Rectangle`), the comparisons
  ``>= <= > < =``, and repeats on the same column intersect.  Strict
  inequalities are tightened to the adjacent float
  (``math.nextafter``), which is exact for the closed-rectangle model.
* Unconstrained predicate attributes default to ``(-inf, +inf)``;
  a bound may also be written ``inf`` / ``infinity``, signed and in
  any case (``-Infinity`` is what JSON-minded clients emit).

Compilation is a two-step pipeline so errors point at the right layer:
:func:`parse_sql` turns text into a :class:`ParsedSQL` (pure syntax,
raising :class:`SQLError` with the offending position), and
:func:`compile_sql` binds it against an engine template - aggregation
attribute and predicate-attribute order - producing the
:class:`~repro.core.queries.Query` the batched engine executes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.queries import (AggFamily, AggFunc, Query, QueryTemplate,
                            Rectangle)

__all__ = ["SQLError", "ParsedSQL", "aggregate_arity", "parse_sql",
           "compile_sql"]


def aggregate_arity(agg: AggFunc) -> int:
    """Extra call arguments the aggregate's SQL form takes: one when
    it declares a parameter rule (``AGG(col, x)``), else none."""
    return 0 if agg.param_rule is None else 1


class SQLError(ValueError):
    """A syntax or binding error, annotated with the source position."""

    def __init__(self, message: str, sql: str, pos: int) -> None:
        pointer = sql[max(0, pos - 20):pos + 20]
        super().__init__(f"{message} at position {pos}: ...{pointer!r}...")
        self.sql = sql
        self.pos = pos


@dataclass(frozen=True)
class ParsedSQL:
    """The syntactic content of one statement, before template binding.

    ``conditions`` holds per-column closed bounds ``col -> (lo, hi)``
    in first-mention order; ``attr`` is ``None`` for ``COUNT(*)``.
    ``attr_pos`` and ``condition_positions`` (one entry per condition,
    the column's first mention) let binding errors point at the
    offending token.
    """

    agg: AggFunc
    attr: Optional[str]
    table: str
    conditions: Tuple[Tuple[str, float, float], ...]
    attr_pos: int = 0
    condition_positions: Tuple[int, ...] = ()
    #: The parameterized aggregates' argument (PERCENTILE's fraction,
    #: TOPK's k); ``None`` for every zero-arity aggregate.
    param: Optional[float] = None


_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<num>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![A-Za-z_])|
              [-+]?(?i:infinity|inf)(?![A-Za-z_0-9]))
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>>=|<=|<>|!=|=|<|>|\(|\)|\*|,)
    )""", re.VERBOSE)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "BETWEEN", "DISTINCT"}


class _Token(NamedTuple):
    kind: str       # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _unexpected(sql: str, start: int, end: int) -> None:
    """Raise at the first non-blank character of ``sql[start:end]``
    (no match covers it); blanks alone are fine."""
    gap = sql[start:end]
    stripped = gap.lstrip()
    if stripped:
        bad = start + len(gap) - len(stripped)
        raise SQLError(f"unexpected character {sql[bad]!r}", sql, bad)


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    for match in _TOKEN_RE.finditer(sql):
        if match.start() != pos:        # text no token pattern matched
            _unexpected(sql, pos, match.start())
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    _unexpected(sql, pos, len(sql))
    tokens.append(_Token("end", "", len(sql)))
    return tokens


class _Parser:
    """Recursive descent over the token list; one statement per call."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = _tokenize(sql)
        self.i = 0

    # ---- token helpers ------------------------------------------------ #
    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        token = self.cur
        self.i += 1
        return token

    def _fail(self, message: str) -> "SQLError":
        return SQLError(message, self.sql, self.cur.pos)

    def expect_keyword(self, word: str) -> None:
        if not (self.cur.kind == "ident" and
                self.cur.text.upper() == word):
            raise self._fail(f"expected {word}")
        self._advance()

    def expect_op(self, op: str) -> None:
        if not (self.cur.kind == "op" and self.cur.text == op):
            raise self._fail(f"expected {op!r}")
        self._advance()

    def identifier(self, what: str) -> str:
        if self.cur.kind != "ident" or \
                self.cur.text.upper() in _KEYWORDS:
            raise self._fail(f"expected {what}")
        return self._advance().text

    def number(self) -> float:
        if self.cur.kind != "num":
            raise self._fail("expected a number")
        return float(self._advance().text)

    # ---- grammar ------------------------------------------------------ #
    def statement(self) -> ParsedSQL:
        self.expect_keyword("SELECT")
        agg_token = self.cur
        agg_name = self.identifier("an aggregate function").upper()
        try:
            agg = AggFunc(agg_name)
        except ValueError:
            raise SQLError(
                f"unknown aggregate {agg_name!r} (one of "
                f"{'/'.join(a.value for a in AggFunc)})",
                self.sql, agg_token.pos) from None
        self.expect_op("(")
        attr_pos = self.cur.pos
        if self.cur.kind == "ident" and \
                self.cur.text.upper() == "DISTINCT":
            if agg is not AggFunc.COUNT:
                raise self._fail(
                    f"DISTINCT is only supported inside COUNT, not "
                    f"{agg.value}")
            self._advance()
            agg = AggFunc.COUNT_DISTINCT
            attr_pos = self.cur.pos
            if self.cur.kind == "op" and self.cur.text == "*":
                raise self._fail("COUNT(DISTINCT *) is not defined; "
                                 "name a column")
            attr: Optional[str] = self.identifier(
                "a column to count distinct values of")
        elif self.cur.kind == "op" and self.cur.text == "*":
            if agg is not AggFunc.COUNT:
                raise self._fail(f"{agg.value}(*) is not defined; "
                                 "name a column")
            self._advance()
            attr = None
            attr_pos = agg_token.pos
        else:
            attr = self.identifier("an aggregation column")
        param: Optional[float] = None
        if self.cur.kind == "op" and self.cur.text == ",":
            if aggregate_arity(agg) == 0:
                raise self._fail(
                    f"{agg.value} does not take a parameter")
            self._advance()
            param_pos = self.cur.pos
            param = self.number()
            try:        # range-check where the text still points at it
                agg.check_param(param)
            except ValueError as exc:
                raise SQLError(str(exc), self.sql, param_pos) from None
        elif aggregate_arity(agg) == 1:
            raise self._fail(
                f"{agg.value} needs a parameter: "
                f"{agg.value}(col, {agg.param_rule.symbol})")
        self.expect_op(")")
        self.expect_keyword("FROM")
        table = self.identifier("a table name")
        conditions, positions = self.where_clause()
        if self.cur.kind != "end":
            raise self._fail("trailing input after statement")
        return ParsedSQL(agg, attr, table, tuple(conditions),
                         attr_pos=attr_pos,
                         condition_positions=tuple(positions),
                         param=param)

    def where_clause(self) -> Tuple[List[Tuple[str, float, float]],
                                    List[int]]:
        if self.cur.kind == "end":
            return [], []
        self.expect_keyword("WHERE")
        bounds: Dict[str, Tuple[float, float]] = {}
        pos_of: Dict[str, int] = {}
        order: List[str] = []
        while True:
            pos, col, lo, hi = self.predicate()
            if col in bounds:
                a, b = bounds[col]
                lo, hi = max(a, lo), min(b, hi)
            else:
                order.append(col)
                pos_of[col] = pos
            bounds[col] = (lo, hi)
            if self.cur.kind == "ident" and \
                    self.cur.text.upper() == "AND":
                self._advance()
                continue
            break
        return ([(col, *bounds[col]) for col in order],
                [pos_of[col] for col in order])

    def predicate(self) -> Tuple[int, str, float, float]:
        pos = self.cur.pos
        col = self.identifier("a predicate column")
        if self.cur.kind == "ident" and \
                self.cur.text.upper() == "BETWEEN":
            self._advance()
            lo = self.number()
            self.expect_keyword("AND")
            hi = self.number()
            return pos, col, lo, hi
        if self.cur.kind != "op" or \
                self.cur.text not in (">=", "<=", ">", "<", "="):
            raise self._fail("expected BETWEEN or a comparison "
                             "(>=, <=, >, <, =)")
        op = self._advance().text
        value = self.number()
        if op == ">=":
            return pos, col, value, math.inf
        if op == "<=":
            return pos, col, -math.inf, value
        if op == ">":        # strict: tighten to the next float
            return pos, col, math.nextafter(value, math.inf), math.inf
        if op == "<":
            return (pos, col, -math.inf,
                    math.nextafter(value, -math.inf))
        return pos, col, value, value   # "=" - a degenerate interval


def parse_sql(sql: str) -> ParsedSQL:
    """Parse one statement of the supported subset.

    Raises :class:`SQLError` (a ``ValueError``) with the source position
    on any syntax problem; binding against an engine template is
    :func:`compile_sql`'s job.
    """
    return _Parser(sql).statement()


def compile_sql(sql: str, agg_attr: str,
                predicate_attrs: Sequence[str],
                stat_attrs: Optional[Sequence[str]] = None) -> Query:
    """Parse and bind one statement against an engine template.

    ``agg_attr`` substitutes for ``COUNT(*)``; ``predicate_attrs``
    fixes the rectangle's dimension order, with unconstrained
    dimensions left unbounded; ``stat_attrs``, when given, is the set
    of columns the synopsis tracks statistics for and the aggregation
    column is validated against it (``COUNT`` aside).  Binding errors -
    an untracked aggregation column, a WHERE column outside the
    template, or a provably empty interval - raise :class:`SQLError`
    pointing at the statement.
    """
    parsed = parse_sql(sql)
    pred_attrs = tuple(predicate_attrs)
    attr = parsed.attr if parsed.attr is not None else agg_attr
    for (col, lo, hi), pos in zip(parsed.conditions,
                                  parsed.condition_positions):
        if col not in pred_attrs:
            raise SQLError(
                f"column {col!r} is not a predicate attribute of this "
                f"synopsis (template: {', '.join(pred_attrs)})", sql,
                pos)
        if lo > hi:
            raise SQLError(
                f"empty interval for column {col!r}: "
                f"[{lo!r}, {hi!r}]", sql, pos)
    bound = {col: (lo, hi) for col, lo, hi in parsed.conditions}
    lo = tuple(bound.get(a, (-math.inf, math.inf))[0]
               for a in pred_attrs)
    hi = tuple(bound.get(a, (-math.inf, math.inf))[1]
               for a in pred_attrs)
    query = Query(parsed.agg, attr, pred_attrs, Rectangle(lo, hi),
                  parsed.param)
    # Sketch aggregates bind against the engine's sketch_attrs, which
    # this signature does not carry: ``engine.template`` rejects those.
    if stat_attrs is not None and \
            parsed.agg.family is not AggFamily.SKETCH:
        problem = _stat_template(pred_attrs,
                                 tuple(stat_attrs)).problem(query)
        if problem is not None:
            raise SQLError(problem, sql, parsed.attr_pos)
    return query


@lru_cache(maxsize=32)
def _stat_template(predicate_attrs: Tuple[str, ...],
                   stat_attrs: Tuple[str, ...]) -> QueryTemplate:
    """The tracked-column rule of one binding signature, built once."""
    return QueryTemplate(None, predicate_attrs, stat_attrs)
