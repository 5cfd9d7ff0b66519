"""Counted-value sketch core and the two concrete sketches.

One representation serves every sketch aggregate: a map from live
value to an integer count, plus the exact live-row total.  What differs
per sketch is *which* values are retained (:meth:`CountedSketch._keeps`),
how an estimate is rendered, and the accuracy contract:

* :class:`QuantileSketch` retains a value iff its hash's trailing-zero
  level reaches the configured ``height`` - an expected ``2**-height``
  subsample of the distinct values, each standing for ``2**height`` of
  them.  ``height=0`` degenerates to exact quantiles.
* :class:`ExactCountSketch` retains every value with its exact
  multiplicity.  COUNT DISTINCT reads it through the classic
  HyperLogLog register harmonic mean (exact multiplicities are what
  make the HLL deletable), so accuracy scales as ``1.04/sqrt(m)`` with
  ``m = 2**bits`` registers - the bound the accuracy benchmark pins.
  TOPK reads the same multiset's top-k counts
  (:meth:`ExactCountSketch.top`).

Serialization (:meth:`CountedSketch.to_bytes`) is canonical: entries
are emitted in ascending value order, so two sketches over the same
multiset serialize to identical bytes no matter how they were built.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .hashing import hash_float, sample_level

__all__ = ["CountedSketch", "ExactCountSketch", "QuantileSketch"]

#: ``kind:u8 | version:u8 | param:u32 | n_total:i64 | n_entries:i64``
_BLOB_HEADER = struct.Struct("<BBIqq")
_BLOB_VERSION = 1

#: The one key every NaN is counted under (as ``np.unique`` counts
#: them): a NaN under its own float object is a key no delete finds.
_NAN = math.nan


class CountedSketch:
    """Shared multiset core: value -> live count, plus the row total.

    Subclasses set :attr:`KIND` (the wire tag) and override
    :meth:`_keeps` to decide which values are materialized.  All state
    transitions are exact multiset arithmetic, so state is canonical in
    the live multiset by construction.
    """

    KIND = 0

    def __init__(self, param: int) -> None:
        self.param = int(param)
        self.counts: Dict[float, int] = {}
        self.n_total = 0

    # -------------------------------------------------------------- #
    # multiset maintenance
    # -------------------------------------------------------------- #
    def _keeps(self, value: float) -> bool:
        return True

    def insert_many(self, values: Iterable[float]) -> None:
        counts = self.counts
        for raw in values:
            value = float(raw)
            if value != value:
                value = _NAN
            self.n_total += 1
            if self._keeps(value):
                counts[value] = counts.get(value, 0) + 1

    def delete_many(self, values: Iterable[float]) -> None:
        counts = self.counts
        for raw in values:
            value = float(raw)
            if value != value:
                value = _NAN
            self.n_total -= 1
            if self.n_total < 0:
                raise ValueError("sketch delete underflow: more rows "
                                 "deleted than inserted")
            if self._keeps(value):
                left = counts.get(value, 0) - 1
                if left < 0:
                    raise ValueError(f"sketch delete of value {value} "
                                     f"that is not live")
                if left:
                    counts[value] = left
                else:
                    del counts[value]

    def merge_in(self, other: "CountedSketch") -> "CountedSketch":
        """Fold another sketch of the same kind/parameter into this one."""
        if type(other) is not type(self) or other.param != self.param:
            raise ValueError(
                f"cannot merge {type(other).__name__}(param="
                f"{getattr(other, 'param', '?')}) into "
                f"{type(self).__name__}(param={self.param})")
        self.n_total += other.n_total
        counts = self.counts
        for value, count in other.counts.items():
            combined = counts.get(value, 0) + count
            if combined:
                counts[value] = combined
            else:
                del counts[value]
        return self

    # -------------------------------------------------------------- #
    # canonical serialization
    # -------------------------------------------------------------- #
    def to_bytes(self) -> bytes:
        """Canonical blob: header + entries in ascending value order."""
        values = np.fromiter(self.counts.keys(), dtype=np.float64,
                             count=len(self.counts))
        counts = np.fromiter(self.counts.values(), dtype=np.int64,
                             count=len(self.counts))
        order = np.argsort(values, kind="stable")
        header = _BLOB_HEADER.pack(self.KIND, _BLOB_VERSION, self.param,
                                   self.n_total, len(self.counts))
        return header + values[order].tobytes() + \
            counts[order].tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CountedSketch":
        kind, version, param, n_total, n_entries = \
            _BLOB_HEADER.unpack_from(blob)
        if kind != cls.KIND:
            raise ValueError(f"blob kind {kind} is not a "
                             f"{cls.__name__} (kind {cls.KIND})")
        if version != _BLOB_VERSION:
            raise ValueError(f"unsupported sketch blob version {version}")
        sketch = cls(param)
        offset = _BLOB_HEADER.size
        values = np.frombuffer(blob, dtype="<f8", count=n_entries,
                               offset=offset)
        counts = np.frombuffer(blob, dtype="<i8", count=n_entries,
                               offset=offset + 8 * n_entries)
        sketch.counts = {_NAN if v != v else float(v): int(c)
                         for v, c in zip(values, counts)}
        sketch.n_total = int(n_total)
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountedSketch):
            return NotImplemented
        return (type(self) is type(other) and self.param == other.param
                and self.n_total == other.n_total
                and self.counts == other.counts)

    def __len__(self) -> int:
        return len(self.counts)


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

    def _keeps(self, value: float) -> bool:
        return sample_level(value) >= self.param

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
        reaches ``ceil(p * W)`` of the retained mass ``W``.  On an
        exact sketch (``height=0``) this is precisely the lower
        quantile of the live multiset.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile fraction {p} outside [0, 1]")
        if not self.counts:
            return math.nan
        values = sorted(self.counts)
        weight = self.sampled_rows()
        target = max(1, math.ceil(p * weight))
        cum = 0
        for value in values:
            cum += self.counts[value]
            if cum >= target:
                return value
        return values[-1]

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
    """Every live value with its exact count: a refcounted HyperLogLog
    for COUNT DISTINCT and the exact top-k counts for TOPK.

    ``param`` is the HLL register-index bit width ``b`` (``m = 2**b``
    registers).  Exact multiplicities make deletion an exact decrement;
    the registers are re-derived from the live distinct values at
    estimate time, so the estimate after any insert/delete/merge
    history equals the estimate over the surviving multiset.
    """

    KIND = 2

    @property
    def n_registers(self) -> int:
        return 1 << self.param

    def _alpha(self) -> float:
        m = self.n_registers
        if m <= 16:
            return 0.673
        if m <= 32:
            return 0.697
        if m <= 64:
            return 0.709
        return 0.7213 / (1.0 + 1.079 / m)

    def _registers(self) -> np.ndarray:
        b = self.param
        width = 64 - b
        registers = np.zeros(self.n_registers, dtype=np.int64)
        for value in self.counts:
            h = hash_float(value)
            j = h >> width
            rest = h & ((1 << width) - 1)
            rho = width - rest.bit_length() + 1
            if rho > registers[j]:
                registers[j] = rho
        return registers

    def estimate(self) -> float:
        """Bias-corrected harmonic-mean estimate with linear counting."""
        if not self.counts:
            return 0.0
        m = self.n_registers
        registers = self._registers()
        raw = self._alpha() * m * m / float(
            np.sum(np.power(2.0, -registers.astype(np.float64))))
        zeros = int(np.count_nonzero(registers == 0))
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def rel_error_bound(self, z: float = 2.0) -> float:
        """``z`` standard errors of the HLL estimator: ``z*1.04/sqrt(m)``."""
        return z * 1.04 / math.sqrt(self.n_registers)

    def top(self, k: int) -> List[Tuple[float, int]]:
        """The ``k`` most frequent live values, count desc then value asc."""
        if k < 1:
            raise ValueError(f"top-k needs k >= 1, got {k}")
        ranked = sorted(self.counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def top_mass(self, k: int) -> float:
        """Total live-row count captured by the top ``k`` values."""
        return float(sum(count for _value, count in self.top(k)))
