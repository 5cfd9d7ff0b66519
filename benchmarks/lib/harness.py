"""Shared experiment harness for the paper's evaluation protocol.

Section 6.2's workflow, reused by most benchmarks: load the first 10% of
a dataset as "historical" data, initialize each system on it, then feed
10% increments; after each increment re-initialize/retrain and evaluate a
fixed 2000-query workload against exact ground truth.  The helpers here
keep that protocol in one place so each bench file only varies the knobs
its table/figure needs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.queries import AggFunc, Query
from repro.core.table import Table
from repro.datasets.synthetic import Dataset
from repro.datasets.workload import generate_workload
from .metrics import (LatencyMeter, median_relative_error,
                      p95_relative_error, relative_errors)


@dataclass
class EvalResult:
    """One system evaluated on one workload snapshot."""

    median_re: float
    p95_re: float
    mean_latency_ms: float
    n_queries: int


def evaluate(system, queries: Sequence[Query], table: Table) -> EvalResult:
    """Run the workload, comparing against exact ground truth."""
    meter = LatencyMeter()
    estimates: List[float] = []
    for query in queries:
        with meter.time():
            result = system.query(query)
        estimates.append(result.estimate)
    truths = table.ground_truths(queries)
    return EvalResult(
        median_re=median_relative_error(estimates, truths),
        p95_re=p95_relative_error(estimates, truths),
        mean_latency_ms=meter.mean_ms,
        n_queries=len(queries))


@dataclass
class ProgressRun:
    """Incremental-arrival protocol state (Section 6.2)."""

    dataset: Dataset
    initial_fraction: float = 0.10
    increment: float = 0.10
    table: Table = field(init=False)
    cursor: int = field(init=False)

    def __post_init__(self) -> None:
        self.table = Table(self.dataset.schema,
                           capacity=self.dataset.n + 16)
        self.cursor = int(self.initial_fraction * self.dataset.n)
        self.table.insert_many(self.dataset.data[:self.cursor])

    @property
    def progress(self) -> float:
        return self.cursor / self.dataset.n

    def next_increment_rows(self) -> np.ndarray:
        """The next 10% slice (does not insert - systems do that)."""
        end = min(self.dataset.n,
                  self.cursor + int(self.increment * self.dataset.n))
        rows = self.dataset.data[self.cursor:end]
        self.cursor = end
        return rows

    def has_more(self) -> bool:
        return self.cursor < self.dataset.n


def make_workload(table: Table, dataset: Dataset, agg: AggFunc,
                  n_queries: int = 2000, seed: int = 7,
                  min_count: int = 0,
                  predicate_attrs: Optional[Sequence[str]] = None,
                  agg_attr: Optional[str] = None,
                  endpoints: str = "data") -> List[Query]:
    """The dataset's default template workload (2000 random rectangles).

    Benchmarks default to data-valued endpoints so selectivities follow
    the data density (heavy-tailed domains make uniform-over-domain
    rectangles mostly empty).
    """
    return generate_workload(
        table, agg, agg_attr or dataset.agg_attr,
        predicate_attrs or dataset.predicate_attrs,
        n_queries=n_queries, seed=seed, min_count=min_count,
        endpoints=endpoints)


def fmt_row(label: str, values: Sequence[float], width: int = 10,
            prec: int = 4) -> str:
    cells = "".join(f"{v:>{width}.{prec}g}" if isinstance(v, float)
                    else f"{v:>{width}}" for v in values)
    return f"{label:<24}{cells}"
