"""Max-variance oracle M(R): the core primitive of all partitioners.

Section 5.1 reduces partition optimization to: given a rectangle R, find
(approximately) the rectangular query inside R whose estimate has the
largest sample-estimate variance nu_s.  Appendix D.1 gives per-aggregate
constructions, which we reproduce:

* **COUNT** - the max-variance query holds exactly half the bucket's
  samples; its variance has the closed form
  ``(N_R/m_R)^2 * (m_R c - c^2) / m_R`` with ``c = m_R // 2`` - no
  geometry needed.
* **SUM** - split R into two rectangles of ``m_R/2`` samples at the
  median of one coordinate and return the half with the larger sum of
  squared values: a 1/4-approximation of the optimum.
* **AVG** - among rectangles holding ``delta*m`` samples, one maximizing
  the sum of squared values is a 1/4-approximation (Lemma D.1).  We scan
  two candidate families, both genuine rectangles inside R (so M always
  *under*-estimates V, which is what the binary-search partitioner's
  correctness argument needs): (a) maximal index cells fully inside R
  with <= delta*m samples - the analogue of the paper's canonical-
  rectangle structure T; (b) contiguous windows of delta*m samples along
  each coordinate axis, computed with prefix sums.  Both families and
  every cell's statistics come from the live point set alone, so AVG
  ``M(R)`` is bit-equal however the points arrived; it is still not
  ``rect_local`` (the window is ``delta*|S|`` and the cells come from a
  tree over the whole pool).

The module exposes both an index-backed oracle (:class:`MaxVarOracle`,
used by the k-d partitioner and the re-partitioning triggers) and pure
prefix-sum kernels over sorted 1-D arrays (used by the 1-D binary-search
and DP partitioners, where every candidate bucket is a contiguous run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.queries import AggFunc, Rectangle
from ..index.range_index import RangeIndex
from ..sampling.pool import SamplePool


@dataclass
class MaxVarResult:
    """Approximate max variance in a rectangle, with a witness query."""

    variance: float
    witness: Optional[Rectangle] = None

    @property
    def error(self) -> float:
        """Confidence-interval length proxy: sqrt of the variance."""
        return math.sqrt(max(self.variance, 0.0))


# ---------------------------------------------------------------------- #
# variance kernels (Appendix C / Section 5.1 formulas)
# ---------------------------------------------------------------------- #
def sum_query_variance(pop_ratio: float, m_bucket: int, q_sum: float,
                       q_sumsq: float) -> float:
    """nu_s of a SUM query with per-query sample stats inside a bucket.

    ``pop_ratio`` is N/m: population rows per sample; the bucket population
    is estimated as ``pop_ratio * m_bucket`` during partitioning.
    """
    if m_bucket <= 0:
        return 0.0
    n_bucket = pop_ratio * m_bucket
    val = m_bucket * q_sumsq - q_sum * q_sum
    return max(0.0, (n_bucket * n_bucket) / (m_bucket ** 3) * val)


def count_query_variance(pop_ratio: float, m_bucket: int) -> float:
    """Closed-form max nu_s of a COUNT query inside a bucket."""
    if m_bucket <= 1:
        return 0.0
    c = m_bucket // 2
    n_bucket = pop_ratio * m_bucket
    val = m_bucket * c - c * c
    return (n_bucket * n_bucket) / (m_bucket ** 3) * val


def avg_query_variance(m_bucket: int, q_count: int, q_sum: float,
                       q_sumsq: float) -> float:
    """nu_s of an AVG query with per-query sample stats inside a bucket."""
    if m_bucket <= 0 or q_count <= 0:
        return 0.0
    val = m_bucket * q_sumsq - q_sum * q_sum
    return max(0.0, val / (m_bucket * q_count * q_count))


# ---------------------------------------------------------------------- #
# prefix-sum kernels for contiguous 1-D buckets
# ---------------------------------------------------------------------- #
class PrefixStats:
    """Prefix sums over samples sorted by their 1-D key.

    ``bucket [i, j)`` statistics and max-variance estimates in O(1)/O(j-i).
    The scalar oracles read list copies of the prefix arrays: the same
    IEEE doubles, without a numpy scalar round trip per probe.
    """

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        self.m = values.shape[0]
        self.p1 = np.concatenate([[0.0], np.cumsum(values)])
        self.p2 = np.concatenate([[0.0], np.cumsum(values * values)])
        self._p1: List[float] = self.p1.tolist()
        self._p2: List[float] = self.p2.tolist()

    def stats(self, i: int, j: int) -> Tuple[int, float, float]:
        return j - i, self._p1[j] - self._p1[i], self._p2[j] - self._p2[i]

    # -- oracles ------------------------------------------------------- #
    def max_var_count(self, i: int, j: int, pop_ratio: float) -> float:
        return count_query_variance(pop_ratio, j - i)

    def max_var_sum(self, i: int, j: int, pop_ratio: float) -> float:
        """Median half-split oracle (1/4-approximation):
        :func:`sum_query_variance` of each half, written out operation
        for operation (the 1-D partitioner probes it thousands of times
        per partitioning)."""
        m_b = j - i
        if m_b <= 1:
            return 0.0
        mid = i + m_b // 2
        p1, p2 = self._p1, self._p2
        n_b = pop_ratio * m_b
        scale = (n_b * n_b) / (m_b ** 3)
        s, s2 = p1[mid] - p1[i], p2[mid] - p2[i]
        left = scale * (m_b * s2 - s * s)
        s, s2 = p1[j] - p1[mid], p2[j] - p2[mid]
        right = scale * (m_b * s2 - s * s)
        return max(0.0, left, right)

    def max_var_sum_many(self, i: np.ndarray, j: np.ndarray,
                         pop_ratio: float) -> np.ndarray:
        """:meth:`max_var_sum` over int64 index arrays (``i`` may
        broadcast against ``j``): the same IEEE operations on the same
        operands - in place, and each prefix entry gathered once - so
        every entry is bit-equal to the scalar call (``m_b ** 3`` is
        exact in int64 below 2**21)."""
        m_b = j - i
        mid = m_b // 2
        mid += i
        p1, p2 = self.p1, self.p2
        with np.errstate(all="ignore"):      # 0/0 where m_b == 0, inf-inf
            scale = pop_ratio * m_b
            scale *= scale
            scale /= m_b ** 3
            at_mid = np.take(p1, mid), np.take(p2, mid)
            halves = []
            for s, s2 in ((at_mid[0] - np.take(p1, i),
                           at_mid[1] - np.take(p2, i)),
                          (np.take(p1, j) - at_mid[0],
                           np.take(p2, j) - at_mid[1])):
                s2 *= m_b                    # scale * (m_b * s2 - s * s)
                s *= s
                s2 -= s
                s2 *= scale
                halves.append(s2)
            # Python's max(0.0, left, right) skips NaNs: so does fmax.
            var = np.fmax(*halves, out=halves[0])
            return np.where((m_b > 1) & (var > 0.0), var, 0.0)

    def max_var_avg(self, i: int, j: int, window: int) -> float:
        """Best delta*m-sample window inside the bucket (vectorized)."""
        m_b = j - i
        if m_b <= 1:
            return 0.0
        w = max(1, min(window, m_b))
        seg1 = self.p1[i + w:j + 1] - self.p1[i:j + 1 - w]
        seg2 = self.p2[i + w:j + 1] - self.p2[i:j + 1 - w]
        vals = m_b * seg2 - seg1 * seg1
        best = float(vals.max()) if vals.size else 0.0
        return max(0.0, best / (m_b * w * w))

    def max_var(self, i: int, j: int, agg: AggFunc, pop_ratio: float,
                window: int) -> float:
        if agg is AggFunc.COUNT:
            return self.max_var_count(i, j, pop_ratio)
        if agg is AggFunc.SUM:
            return self.max_var_sum(i, j, pop_ratio)
        if agg is AggFunc.AVG:
            return self.max_var_avg(i, j, window)
        raise ValueError(f"no max-variance oracle for {agg}")


# ---------------------------------------------------------------------- #
# index-backed oracle for d >= 1
# ---------------------------------------------------------------------- #
class MaxVarOracle:
    """M(R) over a :class:`RangeIndex` of the pooled sample.

    ``index`` is the index, or a :class:`~repro.sampling.pool.
    SamplePool` whose current view (``pool.index``) every call reads.
    ``pop_ratio`` (N/m) converts sample counts to population estimates;
    ``delta`` is the minimum-support fraction for AVG queries (Section
    5.3.1, default 5%).

    For SUM and COUNT the rows-based entry point
    (:meth:`max_variance_rows`) never touches the index, so ``index``
    may be ``None`` when the caller supplies member blocks itself (the
    k-d partitioner); AVG still needs the index for its canonical-cell
    candidate family.
    """

    def __init__(self, index: Optional[Union[RangeIndex, SamplePool]],
                 agg: AggFunc, pop_ratio: float,
                 delta: float = 0.05) -> None:
        if agg not in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
            raise ValueError(f"no max-variance oracle for {agg}")
        if index is None and agg is AggFunc.AVG:
            raise ValueError("the AVG oracle needs a sample index for "
                             "its canonical-cell candidates")
        self._points = index
        self.agg = agg
        self.pop_ratio = pop_ratio
        self.delta = delta

    @property
    def index(self) -> Optional[RangeIndex]:
        """The point set a call reads: the index given, or the pool's
        current view."""
        points = self._points
        return points.index if isinstance(points, SamplePool) else points

    @property
    def rect_local(self) -> bool:
        """Whether ``M(R)`` depends on the pool only through the points
        inside ``R``.  AVG is a function of the whole live point set:
        its window is ``delta*|S|`` and its cells come from a k-d tree
        over every point, not just those inside ``R``."""
        return self.agg is not AggFunc.AVG

    def max_variance(self, rect: Rectangle) -> MaxVarResult:
        index = self.index
        if index.dim == 1 and self.agg is not AggFunc.AVG:
            # The rectangle's points are a slice of the key-ordered
            # view: already in the (key, tid) order sorted for below.
            keys, values, _ = index.key_range(rect)
            if self.agg is AggFunc.COUNT:
                return MaxVarResult(count_query_variance(
                    self.pop_ratio, values.shape[0]), witness=rect)
            return self._best_half(rect, 0, keys, values)
        if self.agg is AggFunc.COUNT:
            m_b = index.count(rect)
            return MaxVarResult(count_query_variance(self.pop_ratio, m_b),
                                witness=rect)
        return self._max_var_rows(rect, *index.report(rect))

    def max_variance_rows(self, rect: Rectangle, coords: np.ndarray,
                          values: np.ndarray,
                          tids: np.ndarray) -> MaxVarResult:
        """M(R) over a pre-materialized member block of ``rect``.

        The vectorized k-d partitioner maintains each candidate leaf's
        member rows as index arrays into one flat sample matrix; this
        entry point lets it probe the oracle without a per-split
        ``report`` scan.  The rows must be exactly the live points
        inside ``rect``.
        """
        if self.agg is AggFunc.COUNT:
            return MaxVarResult(count_query_variance(self.pop_ratio,
                                                     values.shape[0]),
                                witness=rect)
        return self._max_var_rows(rect, coords, values, tids)

    def _max_var_rows(self, rect: Rectangle, coords: np.ndarray,
                      values: np.ndarray, tids: np.ndarray) -> MaxVarResult:
        # Canonical tid order first: ``report`` order is an
        # implementation detail (join order), and with duplicate
        # coordinates the stable by-coordinate argsorts below would
        # otherwise tie-break differently.  After this sort the oracle
        # is a pure function of the point *set*.  Member blocks from the
        # k-d partitioner (and most storage-order reports) arrive
        # already ascending, so probe the cheap O(n) check before paying
        # the sort and two gathers.
        if tids.shape[0] > 1 and np.any(tids[1:] < tids[:-1]):
            order = np.argsort(tids, kind="stable")
            coords, values = coords[order], values[order]
        if self.agg is AggFunc.SUM:
            return self._max_var_sum(rect, coords, values)
        return self._max_var_avg(rect, coords, values)

    def _max_var_sum(self, rect: Rectangle, coords: np.ndarray,
                     values: np.ndarray) -> MaxVarResult:
        if values.shape[0] <= 1:
            return MaxVarResult(0.0, witness=rect)
        dim = 0 if coords.shape[1] == 1 else int(np.argmax(
            coords.max(axis=0) - coords.min(axis=0)))
        order = np.argsort(coords[:, dim], kind="stable")
        return self._best_half(rect, dim, coords[order, dim], values[order])

    def _best_half(self, rect: Rectangle, dim: int, keys: np.ndarray,
                   vals: np.ndarray) -> MaxVarResult:
        """The SUM oracle over members sorted along ``dim``: the half of
        ``rect`` cut at the median member with the larger variance."""
        m_b = vals.shape[0]
        if m_b <= 1:
            return MaxVarResult(0.0, witness=rect)
        mid = m_b // 2
        best_var, best_witness = -1.0, rect
        cut = float(keys[mid - 1])
        halves = ((0, mid), (mid, m_b))
        for idx, (lo, hi) in enumerate(halves):
            seg = vals[lo:hi]
            var = sum_query_variance(self.pop_ratio, m_b,
                                     float(seg.sum()),
                                     float((seg * seg).sum()))
            if var > best_var:
                best_var = var
                bounds = list(zip(rect.lo, rect.hi))
                if idx == 0:
                    bounds[dim] = (rect.lo[dim], cut)
                else:
                    bounds[dim] = (cut, rect.hi[dim])
                best_witness = Rectangle.from_bounds(bounds)
        return MaxVarResult(best_var, witness=best_witness)

    def _max_var_avg(self, rect: Rectangle, coords: np.ndarray,
                     values: np.ndarray) -> MaxVarResult:
        m_b = values.shape[0]
        if m_b <= 1:
            return MaxVarResult(0.0, witness=rect)
        index = self.index
        w = min(max(4, int(self.delta * max(len(index), 1))), m_b)
        best_var, best_witness = 0.0, rect
        # Candidate family (a): canonical index cells with <= w samples.
        # A cell lies inside ``rect``, so its points are the member
        # rows inside it: exact stats, summed in tid order.
        for cell, _ in index.small_cells(rect, w):
            vals = values[cell.contains_points(coords)]
            var = avg_query_variance(m_b, vals.shape[0], float(vals.sum()),
                                     float((vals * vals).sum()))
            if var > best_var:
                best_var = var
                best_witness = cell
        # Candidate family (b): axis-aligned windows of w samples.
        for dim in range(coords.shape[1]):
            order = np.argsort(coords[:, dim], kind="stable")
            vals = values[order]
            p1 = np.concatenate([[0.0], np.cumsum(vals)])
            p2 = np.concatenate([[0.0], np.cumsum(vals * vals)])
            seg1 = p1[w:] - p1[:-w]
            seg2 = p2[w:] - p2[:-w]
            scores = m_b * seg2 - seg1 * seg1
            if scores.size == 0:
                continue
            s_idx = int(np.argmax(scores))
            var = max(0.0, float(scores[s_idx]) / (m_b * w * w))
            if var > best_var:
                best_var = var
                lo_c = float(coords[order[s_idx], dim])
                hi_c = float(coords[order[s_idx + w - 1], dim])
                bounds = list(zip(rect.lo, rect.hi))
                bounds[dim] = (lo_c, hi_c)
                best_witness = Rectangle.from_bounds(bounds)
        return MaxVarResult(best_var, witness=best_witness)
