"""Partition optimization: max-variance oracle and four partitioners."""

from .spec import TreeSpec, tree_from_intervals
from .maxvar import MaxVarOracle, MaxVarResult, PrefixStats, \
    avg_query_variance, count_query_variance, sum_query_variance
from .onedim import OneDimPartitioner, OneDimResult
from .dp import DPPartitioner
from .kdtree import KDTreePartitioner, KDTreeResult
from .equidepth import equidepth_boundaries, equidepth_tree

__all__ = ["TreeSpec", "tree_from_intervals", "MaxVarOracle",
           "MaxVarResult", "PrefixStats", "avg_query_variance",
           "count_query_variance", "sum_query_variance",
           "OneDimPartitioner", "OneDimResult",
           "DPPartitioner",
           "KDTreePartitioner", "KDTreeResult", "equidepth_boundaries",
           "equidepth_tree"]
