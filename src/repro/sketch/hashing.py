"""Deterministic 64-bit value hashing behind the quantile sketch.

All sketch randomness is *hash* randomness: a value's sampling level
(the quantile sketch keeps it or not) is a pure function of the
value's IEEE-754 bit pattern through the splitmix64 finalizer.
No RNG state exists anywhere in the package, so two sketches that saw
the same value multiset are byte-identical regardless of process,
shard or insertion order - the property every merge/identity gate in
``tests/test_sketch_properties.py`` rests on.
"""

from __future__ import annotations

import struct

__all__ = ["hash_float", "sample_level", "splitmix64"]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit bijective mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def hash_float(value: float) -> int:
    """64-bit hash of a float's bit pattern (``-0.0`` folds onto ``0.0``).

    Hashing the bit pattern rather than ``hash(value)`` keeps the
    result stable across Python builds; folding the signed zero keeps
    ``0.0`` and ``-0.0`` - equal values - in one sketch cell.
    """
    if value == 0.0:
        value = 0.0
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return splitmix64(bits)


def sample_level(value: float) -> int:
    """Trailing-zero count of the value hash: P(level >= h) = 2**-h.

    The quantile sketch retains a value iff ``sample_level(value) >=
    height``, an expected ``2**-height`` subsample of the distinct
    values that is decided identically on every shard.
    """
    h = hash_float(value)
    if h == 0:
        return 64
    return (h & -h).bit_length() - 1
