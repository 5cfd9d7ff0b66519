"""Partition optimization: the max-variance oracle and the engine's two
partitioners (binary-search 1-D, greedy k-d)."""

from .spec import TreeSpec, tree_from_intervals
from .maxvar import MaxVarOracle, MaxVarResult, PrefixStats, \
    avg_query_variance, count_query_variance, sum_query_variance
from .onedim import OneDimPartitioner, OneDimResult
from .kdtree import KDTreePartitioner, KDTreeResult

__all__ = ["TreeSpec", "tree_from_intervals", "MaxVarOracle",
           "MaxVarResult", "PrefixStats", "avg_query_variance",
           "count_query_variance", "sum_query_variance",
           "OneDimPartitioner", "OneDimResult",
           "KDTreePartitioner", "KDTreeResult"]
