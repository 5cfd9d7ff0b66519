"""JanusAQP reproduction: dynamic approximate query processing.

Public API re-exports: build a :class:`Table`, wrap it in
:class:`JanusAQP`, call :meth:`~repro.core.janus.JanusAQP.initialize`,
then stream :meth:`insert`/:meth:`delete` and answer :class:`Query`
objects with confidence intervals.  See ``examples/quickstart.py``.
"""

from .core import (AggFunc, CatchupReport, CatchupRunner,
                   DynamicPartitionTree, HeuristicRouter, JanusAQP,
                   JanusConfig, Query, QueryResult, Rectangle, ReoptReport,
                   SKETCH_AGGS, RepartitionTrigger, ShardedJanusAQP,
                   SynopsisManager, Table, relative_error, table_from_array)

__version__ = "1.0.0"

__all__ = [
    "AggFunc", "CatchupReport", "CatchupRunner",
    "DynamicPartitionTree", "HeuristicRouter", "JanusAQP", "JanusConfig",
    "Query", "QueryResult", "Rectangle", "ReoptReport", "SKETCH_AGGS",
    "RepartitionTrigger", "ShardedJanusAQP", "SynopsisManager",
    "Table", "relative_error", "table_from_array",
    "__version__",
]
