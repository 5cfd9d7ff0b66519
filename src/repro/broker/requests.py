"""Request (de)serialization for the broker topics (Section 3.2).

JanusAQP adopts the PSoup architecture: both data and queries are
streams.  Three topics carry three request kinds::

    insert(key, tuple)   - a new tuple, tagged with a client-side key
    delete(key)          - remove the tuple previously inserted as `key`
    execute(query)       - an aggregate query over the current state

Tuple ids are assigned server-side at insert time, so delete requests
reference the *client key* of the insert; the stream driver keeps the
key-to-tid mapping.  All payloads are flat strings - the same
serialized-record discipline the samplers rely on.

Answers flow back through a fourth lane: the driver publishes each
answered query as a :class:`QueryResponse` record
(:func:`encode_result` / :func:`decode_result`) on its results topic,
so reads and writes ride the same event log end to end.

The ``Query`` / ``QueryResult`` codecs - these line records and the
HTTP service's JSON mappings (``*_to_dict`` / ``*_from_dict``) - name
no field: they loop over the wire schema the dataclasses declare
(:func:`repro.core.queries.wire`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, List, Sequence, Tuple, Union

from ..core.queries import Query, QueryResult, WireField, WireSchema

_FIELD_SEP = "|"
_NUM_SEP = ","
_QUERY = WireSchema(Query)
_RESULT = WireSchema(QueryResult)
#: ``details`` / JSON key of a TOPK answer's decoded ``(value, count)``
#: item list - the one ``details`` entry the HTTP envelope carries.
TOPK_KEY = "topk"


@dataclass(frozen=True)
class InsertRequest:
    key: int
    values: Tuple[float, ...]


@dataclass(frozen=True)
class DeleteRequest:
    key: int


@dataclass(frozen=True)
class QueryRequest:
    query_id: int
    query: Query


@dataclass(frozen=True)
class QueryResponse:
    """One answered query on the results topic: the query id beside the
    full :class:`~repro.core.queries.QueryResult` envelope (estimate,
    both variance components of Section 4.4.1, exactness, frontier
    sizes), so consumers can reconstruct confidence intervals without
    talking to the synopsis."""

    query_id: int
    result: QueryResult


Request = Union[InsertRequest, DeleteRequest, QueryRequest]


def _field_codec(f: WireField, spell: Callable, parse: Callable,
                 join: Callable, split: Callable):
    """``(write(value), read(raw))`` of one field in one spelling:
    ``spell`` / ``parse`` take one of its scalars there and back,
    ``join`` / ``split`` a tuple of them; an unset optional field is
    ``None`` both ways.  Compiled once - every HTTP query and answer
    crosses through these - and a plain scalar costs no
    Python frame: its codec is ``spell`` / ``parse`` themselves."""
    write, read = spell, parse
    if f.many:
        def write(value):
            return join(map(spell, value))

        def read(raw):
            return tuple(map(parse, split(raw)))
    if not f.optional:
        return write, read
    return (lambda value: None if value is None else write(value),
            lambda raw: None if raw is None else read(raw))


def _dict_codec(schema: WireSchema):
    """``(to_dict(obj), from_dict(payload))``: the schema's JSON-safe
    ``{wire key: value}`` form; ``from_dict`` raises ``ValueError``
    when a required key is missing, a value has the wrong shape or a
    number overflows its field's type."""
    rows = [(f.key, f.get, f.optional,
             *_field_codec(f, f.out, f.cast, list, iter))
            for f in schema.fields]

    def to_dict(obj) -> dict:
        return {key: write(get(obj)) for key, get, _, write, _ in rows}

    def from_dict(payload: dict):
        try:
            return schema.build(iter([
                read(payload.get(key) if optional else payload[key])
                for key, _, optional, _, read in rows]))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed {schema.cls.__name__.lower()} "
                             f"payload: {exc}") from exc

    return to_dict, from_dict


#: How a line record spells one JSON-safe scalar, by the field's cast:
#: floats by ``repr`` (exact round trip), flags as ``1`` / ``0``;
#: anything else (names, enum values) is its own text.
_SPELL = {float: repr, int: repr, bool: lambda flag: "1" if flag else "0"}


def _line_codec(kind: str, schema: WireSchema):
    """``(encode(ident, obj), decode(tokens after the ident))`` of the
    schema's ``kind|ident|field|...`` records: one token per field in
    schema order, tuples comma-joined, an unset optional (trailing)
    field omitted."""
    def compile_field(f: WireField):
        text, out = _SPELL.get(f.cast), f.out
        return _field_codec(
            f, (lambda x: text(out(x))) if text else out,
            "1".__eq__ if f.cast is bool else f.cast,
            _NUM_SEP.join, methodcaller("split", _NUM_SEP))

    texts, parsers = zip(*map(compile_field, schema.fields))
    columns = [(f.get, text) for f, text in zip(schema.fields, texts)]
    n_required = sum(not f.optional for f in schema.fields)

    def encode(ident: int, obj) -> str:
        tokens = [kind, str(ident)] + [text(get(obj))
                                       for get, text in columns]
        while tokens[-1] is None:       # unset optionals trail
            tokens.pop()
        return _FIELD_SEP.join(tokens)

    def decode(tokens: List[str]):
        if len(tokens) < n_required:
            raise ValueError(f"short {kind!r} record: {tokens!r}")
        tokens = tokens + [None] * (len(parsers) - len(tokens))
        return schema.build(iter(
            [parse(token) for parse, token in zip(parsers, tokens)]))

    return encode, decode


_query_to_dict, _query_from_dict = _dict_codec(_QUERY)
_result_to_dict, _result_from_dict = _dict_codec(_RESULT)
_query_line, _line_query = _line_codec("Q", _QUERY)
_result_line, _line_result = _line_codec("R", _RESULT)


def encode_insert(key: int, values: Sequence[float]) -> str:
    """Serialize one insert request under a client-side key."""
    nums = _NUM_SEP.join(repr(float(v)) for v in values)
    return f"I{_FIELD_SEP}{key}{_FIELD_SEP}{nums}"


def encode_inserts(start_key: int,
                   rows: Sequence[Sequence[float]]
                   ) -> Tuple[List[str], List[int]]:
    """Encode a row block as insert records with consecutive client keys.

    Returns ``(records, keys)`` where ``keys[i]`` is ``start_key + i``;
    the batch producer path uses this with ``Topic.produce_many``.
    """
    keys = list(range(start_key, start_key + len(rows)))
    records = [encode_insert(key, row) for key, row in zip(keys, rows)]
    return records, keys


def encode_delete(key: int) -> str:
    """Serialize a delete of the tuple inserted under ``key``."""
    return f"D{_FIELD_SEP}{key}"


def encode_query(query_id: int, query: Query) -> str:
    """Serialize one execute request (aggregate + rectangle); the
    trailing :attr:`~repro.core.queries.Query.param` field is omitted
    when ``None``, so parameterless records keep their 7-field shape."""
    return _query_line(query_id, query)


def encode_queries(start_id: int, queries: Sequence[Query]
                   ) -> Tuple[List[str], List[int]]:
    """Encode a query batch with consecutive query ids.

    Returns ``(records, query_ids)``; the batch producer path uses this
    with ``Topic.produce_many``, mirroring :func:`encode_inserts`.
    """
    ids = list(range(start_id, start_id + len(queries)))
    records = [encode_query(qid, query)
               for qid, query in zip(ids, queries)]
    return records, ids


def encode_result(query_id: int, result: QueryResult) -> str:
    """Serialize a :class:`~repro.core.queries.QueryResult` answer."""
    return _result_line(query_id, result)


def decode_result(record: str) -> QueryResponse:
    """Parse one results-topic record."""
    parts = record.split(_FIELD_SEP)
    if parts[0] != "R":
        raise ValueError(f"not a query response: {record!r}")
    return QueryResponse(int(parts[1]), _line_result(parts[2:]))


def query_to_dict(query: Query) -> dict:
    """JSON-safe mapping for one query (HTTP service wire format);
    floats round-trip exactly through JSON's shortest-repr spelling."""
    return _query_to_dict(query)


def query_from_dict(payload: dict) -> Query:
    """Parse one query mapping; raises ``ValueError`` on a bad shape."""
    return _query_from_dict(payload)


def result_to_dict(result: QueryResult) -> dict:
    """JSON-safe mapping for a :class:`~repro.core.queries.QueryResult`:
    the :func:`encode_result` envelope, so a service client can rebuild
    confidence intervals, plus a TOPK answer's item list; the rest of
    ``details`` (merge bookkeeping, numpy payloads) stays server-side."""
    payload = _result_to_dict(result)
    if TOPK_KEY in result.details:
        payload[TOPK_KEY] = result.details[TOPK_KEY]
    return payload


def result_from_dict(payload: dict) -> QueryResult:
    """Rebuild the :func:`result_to_dict` envelope (the client side);
    raises ``ValueError`` on a payload without the full envelope."""
    result = _result_from_dict(payload)
    if TOPK_KEY in payload:
        result.details[TOPK_KEY] = [(float(value), int(count))
                                    for value, count in payload[TOPK_KEY]]
    return result


def decode(record: str) -> Request:
    """Parse one serialized request."""
    parts = record.split(_FIELD_SEP)
    kind = parts[0]
    if kind == "I":
        key = int(parts[1])
        values = tuple(float(tok) for tok in parts[2].split(_NUM_SEP))
        return InsertRequest(key, values)
    if kind == "D":
        return DeleteRequest(int(parts[1]))
    if kind == "Q":
        return QueryRequest(int(parts[1]), _line_query(parts[2:]))
    raise ValueError(f"unknown request kind {kind!r}")
