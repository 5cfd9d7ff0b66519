"""Deterministic 64-bit value hashing behind the quantile sketch.

All sketch randomness is *hash* randomness: whether the quantile
sketch keeps a value is a pure function of the value's IEEE-754 bit
pattern through the splitmix64 finalizer.  No RNG state exists anywhere
in the package, so two sketches that saw the same value multiset are
byte-identical regardless of process, shard or insertion order - the
property every merge/identity gate in ``tests/test_sketch_properties.py``
rests on.

The hash runs over a whole column at once in ``uint64`` numpy
arithmetic, which wraps modulo ``2**64`` exactly as the finalizer's
masked integer arithmetic does.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["canonical", "hash_floats", "sampled"]


def _u64(x: int) -> np.ndarray:
    # The constants are 0-d arrays: numpy combines one with an array
    # at about half the cost of a numpy or Python scalar, which is
    # most of the cost on the few-row batches a served write brings.
    return np.array(x, dtype=np.uint64)


_GOLDEN = _u64(0x9E3779B97F4A7C15)
_MIX1 = _u64(0xBF58476D1CE4E5B9)
_MIX2 = _u64(0x94D049BB133111EB)
_S30, _S27, _S31 = _u64(30), _u64(27), _u64(31)
_ZERO = _u64(0)
_FLOAT_ZERO = np.array(0.0)
#: ``_LOW_BITS[h]``: the ``h`` low bits set, for ``h`` in 0..64.
_LOW_BITS = [_u64((1 << h) - 1) for h in range(65)]


def canonical(values: Sequence[float]) -> np.ndarray:
    """``values`` as a fresh float64 array with ``-0.0`` folded onto
    ``0.0``: adding ``0.0`` maps ``-0.0`` to ``0.0`` and leaves every
    other value (NaN included) as it is, so equal values share one
    sketch key whichever zero arrived first."""
    return np.asarray(values, dtype=np.float64) + _FLOAT_ZERO


def hash_floats(values: np.ndarray) -> np.ndarray:
    """splitmix64 of each :func:`canonical` value's bit pattern, every
    NaN hashed as ``math.nan``'s bits whatever its sign and payload
    (a new ``uint64`` array).

    Hashing the bit pattern rather than ``hash(value)`` keeps the
    result stable across Python builds.
    """
    bits = values.copy()
    bits[np.isnan(bits)] = math.nan
    x = bits.view(np.uint64) + _GOLDEN
    x = (x ^ (x >> _S30)) * _MIX1
    x = (x ^ (x >> _S27)) * _MIX2
    return x ^ (x >> _S31)


def sampled(values: np.ndarray, height: int) -> np.ndarray:
    """Which :func:`canonical` values have at least ``height`` trailing
    zero bits in their hash: P = ``2**-height`` per distinct value,
    decided identically on every shard.  A zero hash has 64 trailing
    zeros, so no value reaches a height above 64."""
    if height > 64:
        return np.zeros(values.shape, dtype=bool)
    return (hash_floats(values) & _LOW_BITS[height]) == _ZERO
