"""Metrics used by the experiment harness (paper Section 6.1.2).

"We report the wall-clock latency and the throughput ... To measure the
accuracy of the system, we report the [median / 95th percentile] of the
relative error which is the difference between ground truth and estimated
query result divided by the ground truth."
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.queries import relative_error


def relative_errors(estimates: Sequence[float],
                    truths: Sequence[float],
                    drop_empty: bool = True) -> np.ndarray:
    """Per-query relative errors; optionally drop zero-truth queries."""
    errs = []
    for est, truth in zip(estimates, truths):
        if truth == 0 or (isinstance(truth, float) and math.isnan(truth)):
            if drop_empty:
                continue
        err = relative_error(est, truth)
        if math.isfinite(err):
            errs.append(err)
    return np.asarray(errs)


def median_relative_error(estimates: Sequence[float],
                          truths: Sequence[float]) -> float:
    errs = relative_errors(estimates, truths)
    return float(np.median(errs)) if errs.size else math.nan


def p95_relative_error(estimates: Sequence[float],
                       truths: Sequence[float]) -> float:
    errs = relative_errors(estimates, truths)
    return float(np.percentile(errs, 95)) if errs.size else math.nan


@dataclass
class LatencyMeter:
    """Accumulates per-operation wall-clock latencies."""

    samples: List[float] = field(default_factory=list)

    def time(self):
        return _Timer(self)

    @property
    def mean_ms(self) -> float:
        if not self.samples:
            return math.nan
        return 1000.0 * float(np.mean(self.samples))

    @property
    def p95_ms(self) -> float:
        if not self.samples:
            return math.nan
        return 1000.0 * float(np.percentile(self.samples, 95))

    @property
    def total_seconds(self) -> float:
        return float(np.sum(self.samples)) if self.samples else 0.0


class _Timer:
    def __init__(self, meter: LatencyMeter) -> None:
        self._meter = meter

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._meter.samples.append(time.perf_counter() - self._t0)
        return False


@dataclass
class ThroughputMeter:
    """Requests/second over a timed region."""

    n_requests: int = 0
    seconds: float = 0.0

    def record(self, n: int, seconds: float) -> None:
        self.n_requests += n
        self.seconds += seconds

    @property
    def per_second(self) -> float:
        return self.n_requests / self.seconds if self.seconds > 0 else math.nan
