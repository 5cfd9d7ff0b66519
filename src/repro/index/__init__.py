"""Geometric index substrates: k-d range index, top-k heaps."""

from .range_index import RangeIndex
from .reference import PyRangeIndex
from .topk import TopK

__all__ = ["RangeIndex", "PyRangeIndex", "TopK"]
