"""Binary-search 1-D partitioner (paper Sections 5.2 and D.2).

The algorithm searches a discretized ladder of error values
``E = { rho^t : L/sqrt(2) <= rho^t <= N*U }`` for the smallest error ``e``
such that the samples can be covered by ``k`` buckets whose worst query
error (sqrt of the max variance) is at most ``e``.  Feasibility for one
``e`` is checked greedily: grow each bucket maximally via binary search on
the sample order, using the prefix-sum oracle of
:mod:`repro.partitioning.maxvar`.

With ``gamma = 4`` for SUM/AVG the result is within ``2*rho*sqrt(2)``
(SUM) / ``2*rho`` (AVG) of the optimal max error; the running time is
``O(k log m log log N)`` oracle calls - the paper's Table 3 compares this
against the PASS dynamic program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.queries import AggFunc, Rectangle
from .maxvar import PrefixStats
from .spec import PartitionNode, tree_from_intervals


@dataclass
class OneDimResult:
    """A 1-D partitioning: interior cut keys and bucket index boundaries."""

    boundaries: List[float]          # k-1 interior cut coordinates
    bucket_index_bounds: List[int]   # k+1 sample-rank boundaries
    max_error: float                 # sqrt(max bucket variance) achieved
    tree: PartitionNode


class OneDimPartitioner:
    """Greedy-feasibility binary search over the error ladder."""

    def __init__(self, agg: AggFunc = AggFunc.SUM, rho: float = 2.0,
                 delta: float = 0.05) -> None:
        if rho <= 1.0:
            raise ValueError("rho must be > 1")
        self.agg = agg
        self.rho = rho
        self.delta = delta

    # ------------------------------------------------------------------ #
    def partition(self, keys: np.ndarray, values: np.ndarray, k: int,
                  n_population: Optional[int] = None,
                  domain: Optional[Tuple[float, float]] = None
                  ) -> OneDimResult:
        """Partition samples ``(key, value)`` into ``k`` buckets.

        ``n_population`` is |D| (defaults to the sample count, i.e. the
        SPT case where samples are the data); ``domain`` is the full key
        range the root rectangle must cover.
        """
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        m = keys.shape[0]
        if m == 0:
            raise ValueError("cannot partition an empty sample")
        k = max(1, min(k, m))
        n_population = n_population if n_population is not None else m
        pop_ratio = n_population / m
        prefix = PrefixStats(values)
        window = max(4, int(self.delta * m))

        # A ladder step re-probes many of the buckets earlier steps
        # did (every first bucket, and every run they agree on).
        memo: Dict[int, float] = {}

        def bucket_error(i: int, j: int) -> float:
            key = i * (m + 1) + j
            err = memo.get(key)
            if err is None:
                var = prefix.max_var(i, j, self.agg, pop_ratio, window)
                err = memo[key] = math.sqrt(max(var, 0.0))
            return err

        hi_err = bucket_error(0, m)          # one bucket: the worst case
        if hi_err <= 0.0:
            bounds = self._equal_count_bounds(m, k)
        else:
            bounds = self._search_ladder(m, k, hi_err, bucket_error)
        cuts = self._cuts_from_bounds(keys, bounds)
        max_err = max((bucket_error(bounds[i], bounds[i + 1])
                       for i in range(len(bounds) - 1)), default=0.0)
        lo_d, hi_d = (domain if domain is not None
                      else (float(keys[0]), float(keys[-1])))
        tree = tree_from_intervals(cuts, Rectangle((lo_d,), (hi_d,)))
        return OneDimResult(cuts, bounds, max_err, tree)

    # ------------------------------------------------------------------ #
    def _search_ladder(self, m: int, k: int, hi_err: float,
                       bucket_error) -> List[int]:
        """Binary search over exponents t of rho^t within the error range."""
        # Lower end of the ladder: a tiny fraction of the 1-bucket error
        # stands in for the paper's L/sqrt(2) bound (both are poly bounds
        # used only to bound the ladder length).
        t_hi = math.ceil(math.log(hi_err, self.rho))
        t_lo = t_hi - 64                       # ~ rho^-64 relative floor
        best_bounds: Optional[List[int]] = None
        lo, hi = t_lo, t_hi
        while lo <= hi:
            mid = (lo + hi) // 2
            e = self.rho ** mid
            bounds = self._feasible(m, k, e, bucket_error)
            if bounds is not None:
                best_bounds = bounds
                hi = mid - 1
            else:
                lo = mid + 1
        if best_bounds is None:
            best_bounds = self._feasible(m, k, self.rho ** (t_hi + 1),
                                         bucket_error)
        if best_bounds is None:                 # paranoid fallback
            best_bounds = self._equal_count_bounds(m, k)
        return best_bounds

    @staticmethod
    def _equal_count_bounds(m: int, k: int) -> List[int]:
        return [round(i * m / k) for i in range(k + 1)]

    def _feasible(self, m: int, k: int, e: float,
                  bucket_error) -> Optional[List[int]]:
        """Greedy maximal buckets with error <= e; None if > k needed."""
        bounds = [0]
        start = 0
        for _ in range(k):
            if start >= m:
                break
            # Binary search the largest j with error([start, j)) <= e.
            lo, hi = start + 1, m
            best = start + 1                   # single sample: error 0
            while lo <= hi:
                mid = (lo + hi) // 2
                if bucket_error(start, mid) <= e:
                    best = mid
                    lo = mid + 1
                else:
                    hi = mid - 1
            bounds.append(best)
            start = best
        if bounds[-1] < m:
            return None
        # Feasible with fewer than k buckets: pad by splitting the largest.
        while len(bounds) - 1 < k:
            sizes = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
            widest = int(np.argmax(sizes))
            if sizes[widest] < 2:
                break
            mid = bounds[widest] + sizes[widest] // 2
            bounds.insert(widest + 1, mid)
        return bounds

    @staticmethod
    def _cuts_from_bounds(keys: np.ndarray, bounds: List[int]) -> List[float]:
        """Interior cut coordinates at the right edge of each bucket."""
        cuts = []
        for b in bounds[1:-1]:
            cuts.append(float(keys[b - 1]))
        # Deduplicate cuts caused by tied keys.
        out: List[float] = []
        for c in cuts:
            if not out or c > out[-1]:
                out.append(c)
        return out
