"""Equal-depth (equi-count) partitioning.

Two uses in the paper: the strata of the stratified-reservoir baseline
("the strata is constructed using a equal-depth partitioning algorithm",
Section 6.1.3), and the optimal COUNT partitioning in one dimension
("the optimum partition in 1D consists of equal size buckets", D.2).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.queries import Rectangle
from repro.partitioning.spec import TreeSpec, tree_from_intervals


def equidepth_boundaries(keys: np.ndarray, k: int) -> List[float]:
    """Interior cut points placing ~equal sample counts per bucket."""
    keys = np.sort(np.asarray(keys, dtype=np.float64))
    m = keys.shape[0]
    if m == 0:
        return []
    k = max(1, min(k, m))
    cuts: List[float] = []
    for i in range(1, k):
        idx = round(i * m / k) - 1
        c = float(keys[idx])
        if not cuts or c > cuts[-1]:
            cuts.append(c)
    return cuts


def equidepth_tree(keys: np.ndarray, k: int,
                   domain: Optional[Tuple[float, float]] = None
                   ) -> TreeSpec:
    """A balanced binary partition tree with equal-depth leaves."""
    keys = np.asarray(keys, dtype=np.float64)
    lo, hi = domain if domain is not None else (float(keys.min()),
                                                float(keys.max()))
    cuts = equidepth_boundaries(keys, k)
    return tree_from_intervals(cuts, Rectangle((lo,), (hi,)))
