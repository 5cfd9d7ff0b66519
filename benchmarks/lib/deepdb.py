"""DeepDB-style learned baseline (paper Section 6.1.3).

Wraps the :mod:`lib.spn` sum-product network as an AQP synopsis with
the evaluation protocol the paper uses: train on 10% of the current
data, answer COUNT/SUM/AVG from the model, and *re-train from scratch*
on re-optimization ("the re-optimization cost of DeepDB is the
cost of re-training instead of incremental training", Section 6.3).
Inserts and deletes only touch the base table; the model's resolution is
frozen until the next retrain - which is exactly why its accuracy stays
flat across progress in Table 2.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from repro.core.queries import AggFunc, Query, QueryResult
from repro.core.table import Table
from .spn import learn_spn


class DeepDBBaseline:
    """SPN-backed AQP over a dynamic table."""

    def __init__(self, table: Table, training_rate: float = 0.10,
                 attrs: Optional[Sequence[str]] = None,
                 min_rows: int = 256, n_bins: int = 32,
                 seed: int = 0) -> None:
        self.table = table
        self.training_rate = training_rate
        self.attrs = tuple(attrs) if attrs else table.schema
        self.min_rows = min_rows
        self.n_bins = n_bins
        self._rng = np.random.default_rng(seed)
        self.model = None
        self.n_at_train = 0
        self.last_train_seconds = 0.0

    # ------------------------------------------------------------------ #
    def fit(self) -> float:
        """(Re-)train on a fresh uniform sample; returns training seconds.

        The leaf floor scales with the training-set size so the model's
        *capacity* (number of mixture components / histogram resolution)
        stays roughly fixed as data grows - DeepDB "has a roughly fixed
        resolution of the data (it does not increase the number of
        parameters as more data is inserted)" (Section 6.2) - while the
        training *cost* still grows with the rows processed.
        """
        n = len(self.table)
        goal = max(self.min_rows, int(self.training_rate * n))
        tids = self.table.sample_tids(goal, self._rng)
        rows = self.table.rows_for(tids)
        cols = [self.table.col_index(a) for a in self.attrs]
        min_rows = max(self.min_rows, rows.shape[0] // 16)
        t0 = time.perf_counter()
        self.model = learn_spn(rows[:, cols], self.attrs,
                               min_rows=min_rows, n_bins=self.n_bins,
                               seed=int(self._rng.integers(2 ** 31)))
        self.last_train_seconds = time.perf_counter() - t0
        self.n_at_train = n
        return self.last_train_seconds

    # updates: the table changes, the model does not ---------------------- #
    def insert(self, values: Sequence[float]) -> int:
        return self.table.insert(values)

    def delete(self, tid: int) -> None:
        self.table.delete(tid)

    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> QueryResult:
        if self.model is None:
            raise RuntimeError("model not trained; call fit()")
        ranges = {attr: (query.rect.lo[dim], query.rect.hi[dim])
                  for dim, attr in enumerate(query.predicate_attrs)}
        # Scale by the population the model knows about.
        n = float(self.n_at_train)
        p = self.model.prob(ranges)
        if query.agg is AggFunc.COUNT:
            return QueryResult(n * p, 0.0, 0.0, exact=False)
        e = self.model.expectation(query.attr, ranges)
        if query.agg is AggFunc.SUM:
            return QueryResult(n * e, 0.0, 0.0, exact=False)
        if query.agg is AggFunc.AVG:
            est = e / p if p > 0 else math.nan
            return QueryResult(est, 0.0, 0.0, exact=False)
        raise ValueError(f"DeepDB baseline does not support {query.agg}")

    def model_size(self) -> int:
        return self.model.size() if self.model is not None else 0
