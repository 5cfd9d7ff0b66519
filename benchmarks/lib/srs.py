"""Stratified reservoir sampling baseline (paper Section 6.1.3, "SRS").

Strata are fixed at construction by equal-depth partitioning of the
(single) predicate attribute; each stratum keeps an exact population
counter and a virtual slice of a global dynamic reservoir (one
:class:`~repro.sampling.pool.SamplePool` filed by bucket).  Queries use
the standard stratified estimator: exact-weighted per-stratum sample
means - structurally the "all leaves partial" special case of a partition
tree with no hierarchy and no node aggregates.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from repro.core import estimators
from repro.core.queries import AggFunc, Query, QueryResult
from repro.core.table import Table
from repro.partitioning.equidepth import equidepth_boundaries
from repro.sampling.pool import SamplePool


class StratifiedReservoirBaseline:
    """Equal-depth stratified sampling AQP over a dynamic table."""

    def __init__(self, table: Table, predicate_attr: str,
                 n_strata: int = 128, sample_rate: float = 0.01,
                 seed: int = 0, min_pool: int = 128) -> None:
        self.table = table
        self.predicate_attr = predicate_attr
        self._attr_idx = table.col_index(predicate_attr)
        keys = table.column(predicate_attr)
        self.boundaries = equidepth_boundaries(keys, n_strata)
        self.n_strata = len(self.boundaries) + 1
        self._populations = np.zeros(self.n_strata)
        for key in keys:
            self._populations[self._stratum_of_key(float(key))] += 1
        self.pool = SamplePool(table, sample_rate, min_pool, seed=seed)
        self.pool.initialize(self._strata_of_rows)

    # ------------------------------------------------------------------ #
    def _stratum_of_key(self, key: float) -> int:
        return bisect.bisect_left(self.boundaries, key)

    def _strata_of_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.boundaries, rows[:, self._attr_idx])

    # updates ------------------------------------------------------------ #
    def insert(self, values: Sequence[float]) -> int:
        tid = self.table.insert(values)
        key = float(self.table.row(tid)[self._attr_idx])
        self._populations[self._stratum_of_key(key)] += 1
        self.pool.insert_many((tid,))
        return tid

    def delete(self, tid: int) -> None:
        key = float(self.table.row(tid)[self._attr_idx])
        self._populations[self._stratum_of_key(key)] -= 1
        self.table.delete(tid)
        self.pool.delete_many((tid,))

    # queries ------------------------------------------------------------ #
    def query(self, query: Query) -> QueryResult:
        if query.predicate_attrs != (self.predicate_attr,):
            raise ValueError("SRS supports only its stratification attr")
        lo, hi = query.rect.lo[0], query.rect.hi[0]
        first = self._stratum_of_key(lo)
        last = self._stratum_of_key(hi)
        schema = self.table.schema
        attr_idx = None if query.agg is AggFunc.COUNT else \
            schema.index(query.attr)
        est = 0.0
        var = 0.0
        if query.agg is AggFunc.AVG:
            n_q = float(self._populations[first:last + 1].sum())
        for stratum in range(first, last + 1):
            rows = self.pool.matrix(stratum)
            m_i = rows.shape[0]
            n_i = float(self._populations[stratum])
            if m_i == 0 or n_i <= 0:
                continue
            keys = rows[:, self._attr_idx]
            mask = (keys >= lo) & (keys <= hi)
            if query.agg is AggFunc.COUNT:
                contrib = estimators.count_partial(n_i, m_i,
                                                   int(mask.sum()))
            elif query.agg is AggFunc.SUM:
                contrib = estimators.sum_partial(n_i, m_i,
                                                 rows[mask, attr_idx])
            elif query.agg is AggFunc.AVG:
                contrib = estimators.avg_partial(n_i, n_q, m_i,
                                                 rows[mask, attr_idx])
            else:
                raise ValueError(f"SRS does not support {query.agg}")
            est += contrib.estimate
            var += contrib.variance
        return QueryResult(est, 0.0, var, exact=False,
                           n_partial=last - first + 1)
