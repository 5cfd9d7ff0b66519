"""Dynamic-programming 1-D partitioner: the PASS baseline of Table 3.

PASS [30] finds the partitioning minimizing the maximum bucket error with
a classic minimax dynamic program over sample ranks:

    dp[j][i] = min over l < i of max(dp[j-1][l], cost(l, i))

where ``cost(l, i)`` is the (approximate) max-variance error of bucket
``[l, i)`` - the same oracle the binary-search partitioner uses, so the
two algorithms optimize the identical objective and Table 3 isolates the
*search strategy*.  The DP explores O(m^2 k) bucket candidates versus the
binary search's O(k log m log log N); the inner minimization is
vectorized with numpy but the asymptotic gap is exactly what the paper's
Table 3 measures.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..core.queries import AggFunc, Rectangle
from .maxvar import PrefixStats
from .onedim import OneDimResult


class DPPartitioner:
    """Exact minimax DP over bucket boundaries (PASS's algorithm)."""

    def __init__(self, agg: AggFunc = AggFunc.SUM,
                 delta: float = 0.05) -> None:
        self.agg = agg
        self.delta = delta

    def partition(self, keys: np.ndarray, values: np.ndarray, k: int,
                  n_population: Optional[int] = None,
                  domain: Optional[Tuple[float, float]] = None
                  ) -> OneDimResult:
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
        window = max(4, int(self.delta * m))
        cost = self._cost_matrix(values, pop_ratio, window)

        # dp[i]: best max-error covering samples [0, i) with j buckets.
        dp = cost[0, 1:m + 1].copy()           # j = 1
        choice = np.zeros((k, m + 1), dtype=np.int64)
        dp_full = np.full(m + 1, np.inf)
        dp_full[1:] = dp
        dp_full[0] = 0.0
        for j in range(1, k):
            new_dp = np.full(m + 1, np.inf)
            for i in range(j + 1, m + 1):
                # candidates l in [j, i): max(dp_full[l], cost[l, i])
                cand = np.maximum(dp_full[j:i], cost[j:i, i])
                l_best = int(np.argmin(cand))
                new_dp[i] = cand[l_best]
                choice[j, i] = j + l_best
            dp_full = new_dp
        bounds = self._backtrack(choice, k, m)
        cuts = []
        for b in bounds[1:-1]:
            c = float(keys[b - 1])
            if not cuts or c > cuts[-1]:
                cuts.append(c)
        max_err = float(dp_full[m]) if math.isfinite(dp_full[m]) else 0.0
        lo_d, hi_d = (domain if domain is not None
                      else (float(keys[0]), float(keys[-1])))
        return OneDimResult(cuts, bounds, max_err,
                            Rectangle((lo_d,), (hi_d,)))

    # ------------------------------------------------------------------ #
    def _cost_matrix(self, values: np.ndarray, pop_ratio: float,
                     window: int) -> np.ndarray:
        """``cost[l, i]`` = error of bucket [l, i) for all pairs.

        O(m^2) space/time; vectorized per right endpoint.  This is the
        inherent cost of the DP approach that Table 3 demonstrates.
        """
        m = values.shape[0]
        prefix = PrefixStats(values)
        p1, p2 = prefix.p1, prefix.p2
        cost = np.zeros((m + 1, m + 1))
        ls = np.arange(m + 1)
        for i in range(1, m + 1):
            l = ls[:i]
            m_b = i - l                                      # bucket sizes
            if self.agg is AggFunc.COUNT:
                c = m_b // 2
                n_b = pop_ratio * m_b
                with np.errstate(divide="ignore", invalid="ignore"):
                    var = np.where(m_b > 1,
                                   (n_b * n_b) / (m_b ** 3)
                                   * (m_b * c - c * c), 0.0)
            elif self.agg is AggFunc.SUM:
                mid = l + m_b // 2
                var = np.zeros(i, dtype=np.float64)
                for lo_idx, hi_idx in ((l, mid), (mid, np.full(i, i))):
                    s = p1[hi_idx] - p1[lo_idx]
                    s2 = p2[hi_idx] - p2[lo_idx]
                    n_b = pop_ratio * m_b
                    with np.errstate(divide="ignore", invalid="ignore"):
                        v = np.where(
                            m_b > 1,
                            (n_b * n_b) / (m_b ** 3)
                            * np.maximum(m_b * s2 - s * s, 0.0), 0.0)
                    var = np.maximum(var, v)
            else:  # AVG: all left endpoints share one window-stat pass
                var = self._avg_cost_row(p1, p2, i, window)
            cost[:i, i] = np.sqrt(np.maximum(var, 0.0))
        return cost

    @staticmethod
    def _avg_cost_row(p1: np.ndarray, p2: np.ndarray, i: int,
                      window: int) -> np.ndarray:
        """AVG max-variance of every bucket ``[l, i)`` for one ``i``.

        Vectorizes the former per-``l`` ``PrefixStats.max_var_avg``
        loop over the shared prefix sums, like the SUM/COUNT branches:
        buckets no longer than the window are their own (single)
        window, and longer buckets take the best of the
        ``window``-sample segments starting inside them, computed as
        one broadcast over (bucket, segment) pairs with a running
        suffix restriction.  Matches the scalar oracle bit for bit -
        same prefix differences, same products, same max.
        """
        l = np.arange(i)
        m_b = i - l
        var = np.zeros(i, dtype=np.float64)
        # Short buckets (m_b <= window): w = m_b, one whole-bucket window.
        short = m_b <= window
        if short.any():
            ls = l[short]
            mb = m_b[short].astype(np.float64)
            s = p1[i] - p1[ls]
            s2 = p2[i] - p2[ls]
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.where(mb > 1,
                             np.maximum(mb * s2 - s * s, 0.0) / (mb ** 3),
                             0.0)
            var[short] = v
        # Long buckets (m_b > window): w = window; bucket [l, i) scans
        # segments [t, t + w) for t in [l, i - w].
        n_long = i - window            # these are l = 0 .. i - window - 1
        if n_long > 0:
            w = window
            t_hi = p2[w:i + 1] - p2[:i - w + 1]          # sumsq per segment
            t_s1 = p1[w:i + 1] - p1[:i - w + 1]
            seg_b = t_s1 * t_s1                          # (sum)^2 per segment
            mb = m_b[:n_long].astype(np.float64)
            scores = mb[:, None] * t_hi[None, :] - seg_b[None, :]
            # segment t is admissible for bucket l only when t >= l
            t_idx = np.arange(t_hi.shape[0])
            scores[t_idx[None, :] < np.arange(n_long)[:, None]] = -np.inf
            best = scores.max(axis=1)
            var[:n_long] = np.maximum(best / (mb * w * w), 0.0)
        return var

    @staticmethod
    def _backtrack(choice: np.ndarray, k: int, m: int) -> List[int]:
        bounds = [m]
        i = m
        for j in range(k - 1, 0, -1):
            i = int(choice[j, i])
            bounds.append(i)
        bounds.append(0)
        bounds = sorted(set(bounds))
        return bounds
