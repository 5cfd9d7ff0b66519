"""Reservoir-sampling baseline (paper Section 6.1.3, "RS").

A plain uniform sample of the whole dataset, maintained by the same
:class:`~repro.sampling.pool.SamplePool` as JanusAQP's (one stratum, no
index), answering queries with the standard uniform-sampling estimators.
Its query latency grows with the sample size because every query scans
the whole sample - the effect visible in Table 2's latency columns.
"""

from __future__ import annotations

from typing import Sequence

from ..core.estimators import uniform_scan
from ..core.queries import Query, QueryResult
from ..core.table import Table
from ..sampling.pool import SamplePool


class ReservoirBaseline:
    """Uniform sampling AQP over a dynamic table."""

    def __init__(self, table: Table, sample_rate: float = 0.01,
                 seed: int = 0, min_pool: int = 128) -> None:
        self.table = table
        self.pool = SamplePool(table, sample_rate, min_pool, seed=seed)
        self.pool.initialize()

    def insert(self, values: Sequence[float]) -> int:
        tid = self.table.insert(values)
        self.pool.insert_many((tid,))
        return tid

    def delete(self, tid: int) -> None:
        self.table.delete(tid)
        self.pool.delete_many((tid,))

    def query(self, query: Query) -> QueryResult:
        return uniform_scan(query, self.table.schema, self.pool.rows(),
                            float(len(self.table)))
