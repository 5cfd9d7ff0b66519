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

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.queries import AggFunc, Rectangle
from .maxvar import PrefixStats
from .spec import TreeSpec, leaf_edges, tree_from_intervals

#: The error ladder's ratio: Section D.2's rho = 2.
_RHO = 2.0


@dataclass
class OneDimResult:
    """A 1-D partitioning: interior cut keys and bucket index boundaries."""

    boundaries: List[float]          # k-1 interior cut coordinates
    bucket_index_bounds: List[int]   # k+1 sample-rank boundaries
    max_error: float                 # sqrt(max bucket variance) achieved
    rect: Rectangle                  # the key range the root covers
    #: Per bucket ``(right-edge key, error)``; the last edge is inf.
    buckets: Sequence[Tuple[float, float]] = ()

    @functools.cached_property
    def tree(self) -> TreeSpec:
        """Built on first use: a rejected candidate never needs one."""
        return tree_from_intervals(self.boundaries, self.rect)

    def leaf_rects(self) -> Iterator[Rectangle]:
        """The leaf rectangles of :attr:`tree`, worst bucket first.

        Ranked on the edges alone and built one at a time, so a
        commit test that stops at its first rejecting leaf builds only
        the rectangles it reads."""
        los, his = leaf_edges(self.boundaries, self.rect)
        edges = his[:-1]
        worst = [0.0] * len(his)
        for edge, err in self.buckets:
            at = bisect.bisect_left(edges, edge)
            worst[at] = max(worst[at], err)
        for at in sorted(range(len(his)), key=lambda i: -worst[i]):
            yield Rectangle((los[at],), (his[at],))


class OneDimPartitioner:
    """Greedy-feasibility search over the error ladder.

    :attr:`rung` is where the next search starts, as an offset from the
    one-bucket rung ``t_hi``: ``None`` (a fresh partitioner) is the
    plain binary search over the whole ladder, and every search leaves
    its winning rung there, so a partitioner kept across calls starts
    each search where the last one ended.
    """

    def __init__(self, agg: AggFunc = AggFunc.SUM,
                 delta: float = 0.05) -> None:
        self.agg = agg
        self.delta = delta
        self.rung: Optional[int] = None

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
        fails = self._fail_table(prefix, pop_ratio)
        if self.agg is AggFunc.SUM:
            bucket_error = prefix.sum_oracle(pop_ratio, root=True)
        else:
            # An AVG probe is a numpy call over its window, and a ladder
            # step re-probes many of the buckets earlier steps did
            # (every first bucket, and every run they agree on).
            memo: Dict[int, float] = {}
            window = max(4, int(self.delta * m))

            def bucket_error(i: int, j: int) -> float:
                key = i * (m + 1) + j
                err = memo.get(key)
                if err is None:
                    err = memo[key] = math.sqrt(max(prefix.max_var(
                        i, j, self.agg, pop_ratio, window), 0.0))
                return err

        hi_err = bucket_error(0, m)          # one bucket: the worst case
        if hi_err <= 0.0:
            bounds = self._equal_count_bounds(m, k)
        else:
            bounds = self._pad(self._search_ladder(
                m, k, hi_err, bucket_error, fails), k)
        edges = keys[np.asarray(bounds[1:-1], dtype=np.intp) - 1].tolist()
        if fails is None:
            errors = [bucket_error(a, b) for a, b in zip(bounds, bounds[1:])]
        else:                                # the same doubles, one call
            at = np.array(bounds)
            errors = np.sqrt(prefix.max_var_sum_many(
                at[:-1], at[1:], pop_ratio)).tolist()
        lo_d, hi_d = (domain if domain is not None
                      else (float(keys[0]), float(keys[-1])))
        # Interior cuts: the edges without the repeats tied keys cause.
        cuts = [c for i, c in enumerate(edges) if not i or c > edges[i - 1]]
        return OneDimResult(cuts, bounds, max(errors),
                            Rectangle((lo_d,), (hi_d,)),
                            list(zip(edges + [math.inf], errors)))

    # ------------------------------------------------------------------ #
    def _fail_table(self, prefix: PrefixStats, pop_ratio: float
                    ) -> Optional[np.ndarray]:
        """``error([start, j))`` at the probes ``j`` a bucket's bisection
        makes up to its first success, as a ``(depth, start)`` table.
        They depend only on ``(start, m)`` - ``(start + 1 + m) // 2``,
        then ``(start + j) // 2``, ... down to ``start + 1`` (error 0,
        a success on every rung) - so one vector kernel pass serves all
        ladder steps.  ``None`` without a vector kernel: plain search."""
        m = prefix.m
        if self.agg is not AggFunc.SUM or m >= 1 << 21:
            return None
        start = np.arange(m)
        probes = [(start + 1 + m) // 2]
        while probes[-1][0] > 1:             # rank 0 bisects the longest
            probes.append((start + probes[-1]) // 2)
        return np.sqrt(prefix.max_var_sum_many(start, np.array(probes),
                                               pop_ratio))

    def _search_ladder(self, m: int, k: int, hi_err: float, bucket_error,
                       fails: Optional[np.ndarray]) -> List[int]:
        """Binary search for the lowest feasible exponent t of rho^t
        within the error range - from a carried :attr:`rung`, over
        the bracket a gallop from that rung leaves."""
        # Lower end of the ladder: a tiny fraction of the 1-bucket error
        # stands in for the paper's L/sqrt(2) bound (both are poly bounds
        # used only to bound the ladder length).
        t_hi = math.ceil(math.log(hi_err, _RHO))
        t_lo = t_hi - 64                       # ~ rho^-64 relative floor
        best_bounds: Optional[List[int]] = None
        # Rung lo - 1 is infeasible (or below the ladder), rung hi + 1
        # is best_bounds' (or above it).
        lo, hi = t_lo, t_hi
        if self.rung is not None:
            # Gallop from the carried rung, down while feasible and up
            # while not, at doubling distance until feasibility flips.
            t, step, down = min(max(t_hi + self.rung, lo), hi), 1, None
            while lo <= hi:
                bounds = self._feasible(m, k, _RHO ** t, bucket_error,
                                        fails)
                if bounds is not None:
                    best_bounds, hi = bounds, t - 1
                    if down is False:
                        break
                    down, t = True, max(t - step, lo)
                else:
                    lo = t + 1
                    if down:
                        break
                    down, t = False, min(t + step, hi)
                step *= 2
        while lo <= hi:
            mid = (lo + hi) // 2
            e = _RHO ** mid
            bounds = self._feasible(m, k, e, bucket_error, fails)
            if bounds is not None:
                best_bounds = bounds
                hi = mid - 1
            else:
                lo = mid + 1
        self.rung = None if best_bounds is None else hi + 1 - t_hi
        if best_bounds is None:
            best_bounds = self._feasible(m, k, _RHO ** (t_hi + 1),
                                         bucket_error, fails)
        if best_bounds is None:                 # paranoid fallback
            best_bounds = self._equal_count_bounds(m, k)
        return best_bounds

    @staticmethod
    def _equal_count_bounds(m: int, k: int) -> List[int]:
        return [round(i * m / k) for i in range(k + 1)]

    @staticmethod
    def _feasible(m: int, k: int, e: float, bucket_error,
                  fails: Optional[np.ndarray]) -> Optional[List[int]]:
        """Greedy maximal buckets with error <= e; None if > k needed."""
        # Per start, how many probes fail before the first success.
        skip = None if fails is None else \
            (fails <= e).argmax(axis=0).tolist()
        bounds = [0]
        start = 0
        for _ in range(k):
            if start >= m:
                break
            # Binary search the largest j with error([start, j)) <= e.
            lo, hi = start + 1, m
            best = start + 1                   # single sample: error 0
            if skip is not None:
                # Resume behind the d failures and the success the table
                # answers (a failure halves the width probed).
                width, d = m + 1 - start, skip[start]
                best = start + (width >> d + 1)
                lo, hi = best + 1, start + (width >> d) - 1
            while lo <= hi:
                mid = (lo + hi) // 2
                if bucket_error(start, mid) <= e:
                    best = mid
                    lo = mid + 1
                else:
                    hi = mid - 1
            bounds.append(best)
            start = best
        return bounds if start >= m else None

    @staticmethod
    def _pad(bounds: List[int], k: int) -> List[int]:
        """Fewer than k buckets were needed: split the largest until k
        (on the winning bounds only: padding never decides feasibility)."""
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        while len(sizes) < k and (size := max(sizes)) > 1:
            widest = sizes.index(size)
            bounds.insert(widest + 1, bounds[widest] + size // 2)
            sizes[widest:widest + 1] = [size // 2, size - size // 2]
        return bounds
