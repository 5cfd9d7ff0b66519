"""Core JanusAQP components: queries, tables, partition trees, system."""

from .queries import (AggFamily, AggFunc, Query, QueryResult, QueryTemplate,
                      Rectangle, SKETCH_AGGS, relative_error)
from .table import Table, table_from_array
from .dpt import DynamicPartitionTree
from .catchup import CatchupReport, CatchupRunner
from .triggers import RepartitionTrigger, TriggerAction
from .janus import JanusAQP, JanusConfig, ReoptReport
from .persist import (load_sharded, load_synopsis, save_sharded,
                      save_synopsis)
from .repartition import (PartialRepartitionReport, ancestor_at,
                          auto_partial_repartition, partial_repartition)
from .stream import StreamClient, StreamDriver, StreamStats
from .templates import HeuristicRouter, SynopsisManager
from .merge import (merge_additive, merge_avg, merge_minmax,
                    merge_moments, merge_results)
from .routing import RoutingStats, ShardSummary
from .sharded import ShardedJanusAQP

__all__ = [
    "AggFamily", "AggFunc", "Query", "QueryResult", "QueryTemplate",
    "Rectangle", "SKETCH_AGGS", "relative_error",
    "Table", "table_from_array", "DynamicPartitionTree", "CatchupReport",
    "CatchupRunner", "RepartitionTrigger", "TriggerAction",
    "JanusAQP", "JanusConfig", "ReoptReport",
    "HeuristicRouter", "SynopsisManager", "PartialRepartitionReport",
    "ancestor_at", "auto_partial_repartition", "partial_repartition",
    "StreamClient", "StreamDriver", "StreamStats",
    "load_sharded", "load_synopsis", "save_sharded", "save_synopsis",
    "ShardedJanusAQP", "RoutingStats", "ShardSummary", "merge_additive",
    "merge_avg", "merge_minmax", "merge_moments", "merge_results",
]
