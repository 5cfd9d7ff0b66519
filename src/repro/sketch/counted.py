"""Counted-value sketch core and the two concrete sketches.

One representation serves every sketch aggregate: a map from live
value to an integer count, plus the exact live-row total.  What differs
per sketch is *which* values are retained (:meth:`CountedSketch._kept`),
how an estimate is rendered, and the accuracy contract:

* :class:`QuantileSketch` retains a value iff its hash has at least
  ``height`` trailing zero bits - an expected ``2**-height`` subsample
  of the distinct values, each standing for ``2**height`` of them.  ``height=0`` degenerates to exact quantiles.
* :class:`ExactCountSketch` retains every value with its exact
  multiplicity, so it answers COUNT DISTINCT (``len``) and TOPK
  (:meth:`ExactCountSketch.top` / :meth:`~ExactCountSketch.top_mass`)
  exactly.

Values are canonical on the way in: every NaN is one key and ``-0.0``
is ``0.0``, so the state is a function of the live multiset as
``np.unique`` sees it.  Serialization (:meth:`CountedSketch.to_bytes`)
is canonical too: entries are emitted in ascending value order, so two
sketches over the same multiset serialize to identical bytes no matter
how they were built.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hashing import canonical, sampled

__all__ = ["CountedSketch", "ExactCountSketch", "QuantileSketch"]

#: ``kind:u8 | version:u8 | param:u32 | n_total:i64 | n_entries:i64``
_BLOB_HEADER = struct.Struct("<BBIqq")
_BLOB_VERSION = 1

#: The one key every NaN is counted under (as ``np.unique`` counts
#: them): a NaN under its own float object is a key no delete finds.
_NAN = math.nan


def _rank(item: Tuple[float, int]) -> tuple:
    """TOPK order: count desc, then value asc, NaN last (a bare
    ``(-count, value)`` compares NaN "equal" to every value, which
    leaves ties in insertion order)."""
    value, count = item
    return (-count, value != value, value)


class CountedSketch:
    """Shared multiset core: value -> live count, plus the row total.

    Subclasses set :attr:`KIND` (the wire tag) and override
    :meth:`_kept` to decide which values are materialized.  A batch is
    canonicalized and filtered as one array; the dict is touched only
    for the values kept.  All state transitions are exact multiset
    arithmetic, so state is canonical in the live multiset by
    construction.
    """

    KIND = 0

    def __init__(self, param: int) -> None:
        self.param = int(param)
        self.counts: Dict[float, int] = {}
        self.n_total = 0
        self._snapshot: Optional[CountedSketch] = None

    @classmethod
    def _read_only(cls, param: int, n_total: int,
                   counts: Dict[float, int]) -> "CountedSketch":
        """A sketch over ``counts`` that no insert, delete or merge
        into it can change."""
        sketch = cls.__new__(cls)
        sketch.param, sketch.n_total = param, n_total
        sketch.counts = MappingProxyType(counts)  # type: ignore
        sketch._snapshot = sketch
        return sketch

    def snapshot(self) -> "CountedSketch":
        """A read-only copy of this state.  An answer carries one: the
        live sketch keeps changing and the result cache keeps answers,
        and no merge or consumer can change what an answer holds.  The
        copy is made once per state: every answer until the next
        insert, delete or merge shares it."""
        if self._snapshot is None:
            self._snapshot = self._read_only(self.param, self.n_total,
                                             dict(self.counts))
        return self._snapshot

    # -------------------------------------------------------------- #
    # multiset maintenance
    # -------------------------------------------------------------- #
    def _kept(self, values: np.ndarray) -> np.ndarray:
        """The :func:`~.hashing.canonical` ``values`` this sketch
        materializes, in input order."""
        return values

    def _check_writable(self) -> None:
        # A snapshot's counts refuse writes themselves, but a batch
        # that keeps no value would still move its n_total, and every
        # answer holding the snapshot would see it.
        if self._snapshot is self:
            raise TypeError(f"a {type(self).__name__} snapshot is "
                            f"read-only")

    def insert_many(self, values: Sequence[float]) -> None:
        self._check_writable()
        counts = self.counts
        for value in self._kept(canonical(values)).tolist():
            if value != value:
                value = _NAN
            counts[value] = counts.get(value, 0) + 1
        self.n_total += len(values)
        self._snapshot = None

    def delete_many(self, values: Sequence[float]) -> None:
        """Remove one live row per value, all or nothing: a batch that
        deletes more rows, or more of one value, than are live raises
        ``ValueError`` with the sketch unchanged."""
        self._check_writable()
        if len(values) > self.n_total:
            raise ValueError("sketch delete underflow: more rows "
                             "deleted than inserted")
        deleted: Dict[float, int] = {}
        for value in self._kept(canonical(values)).tolist():
            if value != value:
                value = _NAN
            deleted[value] = deleted.get(value, 0) + 1
        counts = self.counts
        for value, n in deleted.items():
            if counts.get(value, 0) < n:
                raise ValueError(f"sketch delete of value {value} "
                                 f"that is not live")
        for value, n in deleted.items():
            left = counts[value] - n
            if left:
                counts[value] = left
            else:
                del counts[value]
        self.n_total -= len(values)
        self._snapshot = None

    def merge_in(self, other: "CountedSketch") -> "CountedSketch":
        """Fold another sketch of the same kind/parameter into this one
        (``other`` is only read)."""
        self._check_writable()
        if type(other) is not type(self) or other.param != self.param:
            raise ValueError(
                f"cannot merge {type(other).__name__}(param="
                f"{getattr(other, 'param', '?')}) into "
                f"{type(self).__name__}(param={self.param})")
        counts = self.counts
        for value, count in other.counts.items():
            combined = counts.get(value, 0) + count
            if combined:
                counts[value] = combined
            else:
                del counts[value]
        self.n_total += other.n_total
        self._snapshot = None
        return self

    # -------------------------------------------------------------- #
    # canonical serialization
    # -------------------------------------------------------------- #
    def _entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """The retained values and their counts, in ascending value
        order with NaN last (as ``np.sort`` and ``np.unique`` rank it)."""
        values = np.fromiter(self.counts.keys(), dtype=np.float64,
                             count=len(self.counts))
        counts = np.fromiter(self.counts.values(), dtype=np.int64,
                             count=len(self.counts))
        order = np.argsort(values, kind="stable")
        return values[order], counts[order]

    def to_bytes(self) -> bytes:
        """Canonical blob: header + entries in ascending value order."""
        values, counts = self._entries()
        header = _BLOB_HEADER.pack(self.KIND, _BLOB_VERSION, self.param,
                                   self.n_total, len(self.counts))
        return header + values.tobytes() + counts.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CountedSketch":
        """The read-only sketch a :meth:`to_bytes` blob records."""
        kind, version, param, n_total, n_entries = \
            _BLOB_HEADER.unpack_from(blob)
        if kind != cls.KIND:
            raise ValueError(f"blob kind {kind} is not a "
                             f"{cls.__name__} (kind {cls.KIND})")
        if version != _BLOB_VERSION:
            raise ValueError(f"unsupported sketch blob version {version}")
        offset = _BLOB_HEADER.size
        values = np.frombuffer(blob, dtype="<f8", count=n_entries,
                               offset=offset)
        counts = np.frombuffer(blob, dtype="<i8", count=n_entries,
                               offset=offset + 8 * n_entries)
        return cls._read_only(
            int(param), int(n_total),
            {_NAN if v != v else v: c
             for v, c in zip(values.tolist(), counts.tolist())})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountedSketch):
            return NotImplemented
        return (type(self) is type(other) and self.param == other.param
                and self.n_total == other.n_total
                and self.counts == other.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        # The canonical bytes' digest, so an answer's repr pins its state.
        blob = hashlib.sha256(self.to_bytes()).hexdigest()[:16]
        return (f"{type(self).__name__}(param={self.param}, n_total="
                f"{self.n_total}, entries={len(self)}, blob={blob})")


class QuantileSketch(CountedSketch):
    """Hash-level value sampler answering rank/quantile queries.

    ``param`` is the sampling ``height``: a value is retained iff its
    hash has at least ``height`` trailing zero bits, so the retained
    distinct values are an expected ``2**-height`` sample decided
    identically everywhere.  Estimates are lower quantiles of the
    retained count-weighted sample; the DKW-style bound
    :meth:`rank_eps` is what the accuracy tests pin observed rank error
    against.
    """

    KIND = 1

    def _kept(self, values: np.ndarray) -> np.ndarray:
        return values[sampled(values, self.param)]

    def sampled_rows(self) -> int:
        """Live rows whose value the sketch retained."""
        return sum(self.counts.values())

    @property
    def exact(self) -> bool:
        """True when every live row's value is retained."""
        return self.sampled_rows() == self.n_total

    def quantile(self, p: float) -> float:
        """Lower ``p``-quantile estimate (``p=0`` -> min, ``p=1`` -> max).

        The retained sample's weighted empirical CDF is inverted at
        ``p``: the smallest retained value whose cumulative count
        reaches ``ceil(p * W)`` of the retained mass ``W``, NaN ranked
        above every value.  On an exact sketch (``height=0``) this is
        precisely the lower quantile of the live multiset.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile fraction {p} outside [0, 1]")
        if not self.counts:
            return math.nan
        values, counts = self._entries()
        cum = np.cumsum(counts)
        target = max(1, math.ceil(p * int(cum[-1])))
        return float(values[np.searchsorted(cum, target)])

    def rank_eps(self, delta: float = 0.01) -> float:
        """DKW rank-error bound at confidence ``1 - delta``.

        With ``m`` retained distinct values the empirical CDF deviates
        from the true one by at most ``sqrt(ln(2/delta) / (2m))`` with
        probability ``1 - delta`` (exact for continuous data, where
        counts are 1; heavy duplication loosens it).  An exact sketch
        has zero rank error by construction.
        """
        if self.exact:
            return 0.0
        m = max(1, len(self.counts))
        return min(1.0, math.sqrt(math.log(2.0 / delta) / (2.0 * m)))


class ExactCountSketch(CountedSketch):
    """Every live value with its exact count: COUNT DISTINCT is
    ``len(sketch)`` and TOPK reads :meth:`top` / :meth:`top_mass`, both
    exact.  It takes no parameter; its blob header's slot reads 0."""

    KIND = 2

    def __init__(self) -> None:
        super().__init__(0)

    def top(self, k: int) -> List[Tuple[float, int]]:
        """The ``k`` most frequent live values, count desc then value
        asc, NaN last: O(d log k) over the ``d`` live values."""
        if k < 1:
            raise ValueError(f"top-k needs k >= 1, got {k}")
        return heapq.nsmallest(k, self.counts.items(), key=_rank)

    def top_mass(self, k: int) -> float:
        """Total live-row count captured by the top ``k`` values."""
        if k < 1:
            raise ValueError(f"top-k needs k >= 1, got {k}")
        return float(sum(heapq.nlargest(k, self.counts.values())))
