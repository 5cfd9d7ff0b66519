"""Geometric index substrates: the sample point index, top-k heaps."""

from .range_index import RangeIndex
from .topk import TopK

__all__ = ["RangeIndex", "TopK"]
