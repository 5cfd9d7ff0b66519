"""Length-prefixed binary frames for the process-per-shard fleet.

The serving fleet (:mod:`repro.service.fleet`) escapes the GIL by
moving each shard into its own worker process; what crosses the
process boundary is framed here.  The design goals, in order:

1. **zero-copy row transport** - row blocks and tid arrays travel as
   raw little-endian numpy buffers (``ndarray -> sendall`` on the way
   out, ``recv_into -> frombuffer`` on the way in), never JSON.  An
   insert of n rows costs ``29 + 8*n*n_cols`` bytes on the wire and no
   per-row Python object ever exists;
2. **one block per sub-batch** - a ``query_many`` sub-batch crosses
   as one query block (:func:`encode_query_block`): fixed-width
   records whose layout (:func:`query_dtype`) is derived from the
   :class:`~repro.core.queries.Query` wire schema, text fields as
   indexes into a per-frame name table.  Nothing is spelled as text
   per query, and the worker still rebuilds - and so validates -
   every query through the schema's constructor;
3. **bit-exact answers** - :data:`RESULT_DTYPE` carries every wire
   field :class:`~repro.core.queries.QueryResult` declares (derived
   from its :class:`~repro.core.queries.WireSchema`, never restated)
   plus the merge inputs (AVG's ``n_q`` normalizer, the
   VARIANCE/STDDEV moment triple) as IEEE-754 doubles, which
   round-trip exactly; the coordinator's
   :func:`~repro.core.merge.merge_results` therefore sees
   byte-identical inputs to the in-process fan-out's.

Frame layout (little-endian)::

    header  = opcode:u8 | meta:u32 | trace_id:u64 | span:u64
              | payload_len:u64                           (29 bytes)
    payload = payload_len raw bytes (opcode-specific)

``meta`` is an opcode-specific small integer (column count for
INSERT, the queries' dimensionality for QUERY, result count for a
QUERY reply, flag bits elsewhere).  A QUERY reply's body is
:func:`encode_answers`'s: the result block, then the answers' sketch
blobs - the one place that knows where those blobs ride.
``trace_id`` is 0 for untraced traffic; on a traced *request* it
carries the request's trace id and ``span`` the coordinator-side
parent span id, so the worker can parent its own spans under the
coordinator's ``shard_execute``.  On a traced OP_QUERY *reply*,
``span`` is reinterpreted as the byte length of a JSON span sidecar
appended after the opcode-specific body (see
:mod:`repro.obs.trace`); it is 0 on every untraced frame, which
keeps the untraced wire byte-compatible apart from the wider header.
Every *reply* payload starts with the worker's ``data_epoch`` as an
``i64`` (:func:`pack_reply` / :func:`split_reply`) so the
coordinator's cache epoch mirror stays current without extra round
trips.
"""

from __future__ import annotations

import socket
import struct
from functools import lru_cache
from operator import attrgetter
from typing import (Callable, Dict, Iterable, List, Sequence, Set,
                    Tuple)

import numpy as np

from ..core.merge import MOMENTS_KEY, N_Q_KEY
from ..core.queries import Query, QueryResult, WireField, WireSchema
from ..sketch.registry import SKETCH_KEY

__all__ = [
    "HEADER", "MAX_PAYLOAD", "OP_DELETE", "OP_ERR", "OP_INSERT",
    "OP_OK", "OP_PING", "OP_QUERY", "OP_REOPT", "OP_SHUTDOWN",
    "OP_STATS", "OP_SUMMARY", "RESULT_DTYPE", "decode_answers",
    "decode_query_block", "decode_result_block", "encode_answers",
    "encode_query_block", "encode_result_block", "pack_reply",
    "query_dtype", "recv_frame", "send_frame", "split_reply",
]

#: ``opcode:u8 | meta:u32 | trace_id:u64 | span:u64 | payload_len:u64``,
#: packed little-endian.
HEADER = struct.Struct("<BIQQQ")

#: Hard per-frame ceiling (1 GiB): a corrupt length prefix must fail
#: fast, not drive a multi-exabyte allocation.
MAX_PAYLOAD = 1 << 30

# Coordinator -> worker requests.
OP_PING = 1       #: liveness probe; empty payload, OK reply
OP_INSERT = 2     #: raw f64 row block; meta = n_cols
OP_DELETE = 3     #: raw i64 local-tid block
OP_QUERY = 4      #: one query block; meta = the queries' dimensionality
OP_REOPT = 5      #: re-optimize the shard; empty payload
OP_SUMMARY = 6    #: compute a fresh routing summary; empty payload
OP_STATS = 7      #: shard counters as JSON; empty payload
OP_SHUTDOWN = 8   #: drain and exit; empty payload, OK reply then EOF
# Worker -> coordinator replies.
OP_OK = 16        #: success; payload = i64 epoch + opcode-specific body
OP_ERR = 17       #: failure; payload = "ExcType\nmessage" (UTF-8)

_SCHEMA = WireSchema(QueryResult)
_ENVELOPE = attrgetter(*(f.key for f in _SCHEMA.fields))
_MERGE_INPUTS = [
    ("has_n_q", "<i1"), ("n_q", "<f8"),
    ("has_moments", "<i1"),
    ("m_count", "<f8"), ("m_sum", "<f8"), ("m_sumsq", "<f8"),
    ("ci_unavailable", "<i1")]
_NO_MERGE_INPUTS = (0, 0.0, 0, 0.0, 0.0, 0.0, 0)

#: One wire record per :class:`~repro.core.queries.QueryResult`: its
#: wire fields, then the fleet-only merge inputs read out of
#: ``details``.  The three ``has_*``/flag bytes distinguish "no details
#: entry" from a zero-valued one, so decoded ``details`` dicts match
#: the originals key for key and the merge rules (which probe
#: ``details.get``) behave identically on both sides of the wire.
RESULT_DTYPE = np.dtype(
    [(f.key, f.dtype) for f in _SCHEMA.fields] + _MERGE_INPUTS)
if any(f.cast not in (float, int, bool) for f in _SCHEMA.fields):
    raise TypeError("a block column's cast must be float, int or bool")
#: The same layout read back with flag bytes as ``bool``, so
#: ``tolist()`` hands every wire field its own Python type and
#: decoding casts nothing.
_DECODE_DTYPE = np.dtype(
    [(f.key, "?" if f.cast is bool else f.dtype) for f in _SCHEMA.fields]
    + _MERGE_INPUTS)


# ---------------------------------------------------------------------- #
# socket framing
# ---------------------------------------------------------------------- #
def send_frame(sock: socket.socket, opcode: int, meta: int = 0,
               bufs: Iterable = (), trace_id: int = 0,
               span: int = 0) -> int:
    """Write one frame; returns the total bytes put on the wire.

    ``bufs`` is any iterable of buffer-protocol chunks (bytes,
    memoryviews, numpy arrays); they are concatenated as the payload
    without an intermediate copy of the large blocks - a C-contiguous
    ndarray goes to ``sendall`` as its own memory.  ``trace_id`` and
    ``span`` default to 0 (untraced); see the module docstring for
    their traced semantics.
    """
    chunks = [memoryview(np.ascontiguousarray(b)).cast("B")
              if isinstance(b, np.ndarray) else memoryview(b)
              for b in bufs]
    total = sum(c.nbytes for c in chunks)
    sock.sendall(HEADER.pack(opcode, meta, trace_id, span, total))
    for c in chunks:
        sock.sendall(c)
    return HEADER.size + total


def recv_exact(sock: socket.socket, n: int) -> memoryview:
    """Read exactly ``n`` bytes or raise ``EOFError`` on a closed peer."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], n - got)
        if k == 0:
            raise EOFError("peer closed mid-frame")
        got += k
    return memoryview(buf)


def recv_frame(sock: socket.socket
               ) -> Tuple[int, int, memoryview, int, int]:
    """Read one frame; returns ``(opcode, meta, payload, trace_id,
    span)``.  The trailing pair is ``(0, 0)`` on untraced traffic."""
    opcode, meta, trace_id, span, length = HEADER.unpack(
        recv_exact(sock, HEADER.size))
    if length > MAX_PAYLOAD:
        raise ValueError(f"frame of {length} bytes exceeds the "
                         f"{MAX_PAYLOAD}-byte ceiling")
    payload = recv_exact(sock, length) if length else memoryview(b"")
    return opcode, meta, payload, trace_id, span


# ---------------------------------------------------------------------- #
# reply epoch prefix
# ---------------------------------------------------------------------- #
def pack_reply(epoch: int, bufs: Iterable = ()) -> List[object]:
    """Prefix a reply body with the worker's ``data_epoch`` (i64)."""
    return [np.int64(epoch).tobytes(), *bufs]


def split_reply(payload: memoryview) -> Tuple[int, memoryview]:
    """Split a reply payload into ``(epoch, body)``."""
    epoch = int(np.frombuffer(payload[:8], dtype=np.int64)[0])
    return epoch, payload[8:]


# ---------------------------------------------------------------------- #
# query block codec
# ---------------------------------------------------------------------- #
_QUERY = WireSchema(Query)
if any(f.dtype is not None and f.cast not in (float, int, bool)
       for f in _QUERY.fields):
    raise TypeError("a query block column with a dtype must cast to "
                    "float, int or bool")
_MANY = [f for f in _QUERY.fields if f.many]
#: ``names_len:u32``, the byte length of a block's name table.
_NAMES_LEN = struct.Struct("<I")
#: A text field's column type: an index into the frame's name table.
_NAME_INDEX = "<u2"
_MAX_NAMES = np.iinfo(_NAME_INDEX).max + 1


@lru_cache(maxsize=64)
def query_dtype(d: int, readable: bool = False) -> np.dtype:
    """The record layout of a block of ``d``-dimensional queries.

    One column per :class:`~repro.core.queries.Query` wire field, in
    schema order: a field with a ``dtype`` keeps it, a text field
    (``dtype`` ``None``) is a ``<u2`` index into the frame's name
    table, a ``many`` field is a ``(d,)`` sub-array and an optional
    one is preceded by a
    ``has_<key>`` flag byte.  ``readable`` reads the flag bytes (and
    ``bool`` columns) back as ``bool``, so ``tolist()`` hands every
    field its own Python type.
    """
    flag = "?" if readable else "<i1"
    columns: List[tuple] = []
    for f in _QUERY.fields:
        if f.optional:
            columns.append((f"has_{f.key}", flag))
        kind = flag if readable and f.cast is bool \
            else f.dtype or _NAME_INDEX
        columns.append((f.key, kind, (d,) if f.many else ()))
    return np.dtype(columns)


#: A block record's bytes: fixed, plus this many per dimension.
_FIXED_BYTES = query_dtype(0).itemsize
_DIM_BYTES = query_dtype(1).itemsize - _FIXED_BYTES


def _names_used(block: np.ndarray) -> Set[int]:
    """Every name-table index a record of ``block`` refers to."""
    used: Set[int] = set()
    for f in _QUERY.fields:
        if f.dtype is None:
            column = block[f.key]
            if f.optional:
                column = column[block[f"has_{f.key}"]]
            used.update(column.ravel().tolist())
    return used


def _name_table(column: np.ndarray, names: List[str],
                cast: Callable) -> np.ndarray:
    """``column``'s name indexes resolved: each distinct name is cast
    once, then looked up per record."""
    table = np.empty(len(names), dtype=object)
    for i in set(column.ravel().tolist()):
        table[i] = cast(names[i])
    return table[column]


def _column_reader(f: WireField) -> Callable:
    """``read(block, names)``: one field's values, record by record."""
    def values(column: np.ndarray, names: List[str]) -> list:
        if f.dtype is None:
            column = _name_table(column, names, f.cast)
        return list(map(tuple, column.tolist())) if f.many \
            else column.tolist()

    if not f.optional:
        return lambda block, names: values(block[f.key], names)

    def read(block: np.ndarray, names: List[str]) -> list:
        present = block[f"has_{f.key}"]
        given = iter(values(block[f.key][present], names))
        return [next(given) if has else None for has in present.tolist()]
    return read


_READERS = [_column_reader(f) for f in _QUERY.fields]


def _name_indexes(f: WireField, values: list, names: Dict[str, int]
                  ) -> list:
    """A text field's values as indexes into ``names`` (first seen,
    first numbered), which grows by the names not yet in it; a tuple
    of names is spelled once per distinct tuple."""
    def index(value) -> int:
        return names.setdefault(f.out(value), len(names))
    if not f.many:
        return list(map(index, values))
    spelled = {value: tuple(map(index, value))
               for value in dict.fromkeys(values)}
    return list(map(spelled.__getitem__, values))


def encode_query_block(queries: Sequence[Query]) -> Tuple[int, bytes]:
    """Pack a query batch into one block: ``(meta, payload)`` of an
    OP_QUERY frame, ``meta`` being the queries' dimensionality.

    The payload is ``names_len:u32 | "\\n"-joined UTF-8 names |
    records`` (:func:`query_dtype`); every name is used by some
    record.  Raises ``ValueError`` naming the query block when the
    queries mix dimensionalities, a name holds a newline or there are
    more distinct names than an index can tell apart.
    """
    if not queries:
        return 0, _NAMES_LEN.pack(0)
    d = len(_MANY[0].get(queries[0])) if _MANY else 0
    names: Dict[str, int] = {}
    block = np.zeros(len(queries), dtype=query_dtype(d))
    for f in _QUERY.fields:
        values = list(map(f.get, queries))
        rows: object = slice(None)
        if f.optional:
            rows = np.array([v is not None for v in values])
            block[f"has_{f.key}"] = rows
            values = [v for v in values if v is not None]
        if f.many and set(map(len, values)) - {d}:
            raise ValueError(f"query block mixes dimensionalities: "
                             f"{f.key} of {sorted(set(map(len, values)))}"
                             f" values in one block")
        if f.dtype is None:
            values = _name_indexes(f, values, names)
            if len(names) > _MAX_NAMES:
                raise ValueError(f"query block holds more than "
                                 f"{_MAX_NAMES} distinct names")
        block[f.key][rows] = values
    bad = [name for name in names if "\n" in name]
    if bad:
        raise ValueError(f"query block name {bad[0]!r} contains a "
                         f"newline, the name table's separator")
    table = "\n".join(names).encode("utf-8")
    return d, b"".join((_NAMES_LEN.pack(len(table)), table,
                        block.tobytes()))


def decode_query_block(d: int, payload) -> List[Query]:
    """Unpack an :func:`encode_query_block` payload of
    ``d``-dimensional queries.

    Every query is rebuilt through the schema's constructor, so
    :class:`~repro.core.queries.Query` / ``Rectangle`` validation runs
    here as it does anywhere else.  A corrupt block - a name table cut
    short, a partial record, a name index past the table, a table
    entry no record uses (what a newline inside a name leaves) - is a
    ``ValueError`` naming the query block.
    """
    view = memoryview(payload)
    if view.nbytes < _NAMES_LEN.size:
        raise ValueError("query block cut short before its name table")
    (names_len,) = _NAMES_LEN.unpack_from(view)
    start = _NAMES_LEN.size + names_len
    if start > view.nbytes:
        raise ValueError(f"query block name table cut short: "
                         f"{names_len} bytes declared, "
                         f"{view.nbytes - _NAMES_LEN.size} sent")
    try:
        names = str(view[_NAMES_LEN.size:start], "utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"query block name table is not UTF-8: "
                         f"{exc}") from exc
    records = view[start:]
    if not records.nbytes:
        return []
    size = _FIXED_BYTES + _DIM_BYTES * d
    if records.nbytes % size:
        raise ValueError(f"query block records are {records.nbytes} "
                         f"bytes, not a multiple of the {size}-byte "
                         f"record of {d}-dimensional queries")
    block = np.frombuffer(records, dtype=query_dtype(d, readable=True))
    used = _names_used(block)
    if used and max(used) >= len(names):
        raise ValueError(f"query block name index {max(used)} is out of "
                         f"range of its {len(names)}-name table")
    if len(used) < len(names):
        raise ValueError(f"query block name table holds "
                         f"{len(names) - len(used)} name(s) no record "
                         f"uses; is there a newline inside a name?")
    return _QUERY.build_many(iter([read(block, names)
                                   for read in _READERS]))


# ---------------------------------------------------------------------- #
# result block codec
# ---------------------------------------------------------------------- #
def _merge_inputs(details: dict) -> tuple:
    """The trailing :data:`RESULT_DTYPE` columns of one answer."""
    if not details:
        return _NO_MERGE_INPUTS
    return (N_Q_KEY in details, details.get(N_Q_KEY, 0.0),
            MOMENTS_KEY in details,
            *details.get(MOMENTS_KEY, (0.0, 0.0, 0.0)),
            details.get("ci") == "unavailable")


def encode_result_block(results: Sequence[QueryResult]) -> np.ndarray:
    """Pack query answers into a :data:`RESULT_DTYPE` record block."""
    return np.array([_ENVELOPE(result) + _merge_inputs(result.details)
                     for result in results], dtype=RESULT_DTYPE)


def decode_result_block(payload) -> List[QueryResult]:
    """Unpack a :data:`RESULT_DTYPE` block back into answer objects.

    ``payload`` must hold exactly the fixed-size block: an OP_QUERY
    reply body, which may carry sketch blobs after it, is read with
    :func:`decode_answers`.
    """
    block = np.frombuffer(payload, dtype=_DECODE_DTYPE)
    results = _SCHEMA.build_many(iter([block[f.key].tolist()
                                       for f in _SCHEMA.fields]))
    for i in np.flatnonzero(block["ci_unavailable"]).tolist():
        results[i].details["ci"] = "unavailable"
    n_q, moments = block["n_q"], block[["m_count", "m_sum", "m_sumsq"]]
    for i in np.flatnonzero(block["has_n_q"]).tolist():
        results[i].details[N_Q_KEY] = n_q[i].item()
    for i in np.flatnonzero(block["has_moments"]).tolist():
        results[i].details[MOMENTS_KEY] = moments[i].item()
    return results


# ---------------------------------------------------------------------- #
# OP_QUERY reply body: the result block, then the sketch blobs
# ---------------------------------------------------------------------- #
#: ``index:u32 | blob_len:u32`` ahead of each sketch blob, little-endian.
_BLOB_HEADER = struct.Struct("<II")


def encode_answers(results: Sequence[QueryResult]) -> List[object]:
    """An OP_QUERY reply body: the :data:`RESULT_DTYPE` block, then a
    sidecar of ``index:u32 | blob_len:u32 | blob`` for every answer
    carrying a canonical sketch blob (``details["sketch"]``, variable
    length, so not a block column).  ``index`` is the answer's
    position in the block."""
    sidecar = []
    for i, result in enumerate(results):
        blob = result.details.get(SKETCH_KEY)
        if blob is not None:
            sidecar += (_BLOB_HEADER.pack(i, len(blob)), blob)
    return [encode_result_block(results), b"".join(sidecar)]


def decode_answers(payload, n: int) -> List[QueryResult]:
    """:func:`encode_answers` of ``n`` answers back into answer objects,
    each sketch blob byte-identical to the one the worker's engine put
    in ``details["sketch"]``.  A sidecar cut short or indexing past the
    block is a ``ValueError``."""
    fixed_end = n * RESULT_DTYPE.itemsize
    results = decode_result_block(payload[:fixed_end])
    sidecar = bytes(payload[fixed_end:])
    offset = 0
    while offset < len(sidecar):
        if offset + _BLOB_HEADER.size > len(sidecar):
            raise ValueError("sketch sidecar truncated mid-header")
        index, blob_len = _BLOB_HEADER.unpack_from(sidecar, offset)
        offset += _BLOB_HEADER.size
        if offset + blob_len > len(sidecar):
            raise ValueError("truncated sketch sidecar frame")
        if index >= len(results):
            raise ValueError(
                f"sketch sidecar frame indexes result {index} of a "
                f"{len(results)}-result block")
        results[index].details[SKETCH_KEY] = \
            sidecar[offset:offset + blob_len]
        offset += blob_len
    return results
