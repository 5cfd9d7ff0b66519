"""Allocation checks for the pooled stratified sample.

The strata themselves are virtual partitions of one global sample
(Section 4.2) and live in :class:`~repro.sampling.pool.SamplePool`.
Appendix B gives the condition under which uniform global sampling
satisfies proportional allocation per stratum up to a factor of two with
high probability; :func:`proportional_allocation_ok` implements that
check, and :func:`min_samples_per_stratum` is the floor the
re-partitioning trigger holds each leaf to.
"""

from __future__ import annotations

import math


def proportional_allocation_ok(stratum_population: int, sample_rate: float,
                               n_strata: int) -> bool:
    """Appendix B: is the stratum large enough for proportional allocation?

    A stratum of population ``N_i >= (16 / alpha) * log(k)`` receives at
    least half its proportional share of a uniform global sample with
    probability ``1 - 1/k^2``.
    """
    if sample_rate <= 0:
        return False
    needed = (16.0 / sample_rate) * math.log(max(n_strata, 2))
    return stratum_population >= needed


def min_samples_per_stratum(sample_rate: float, pool_size: int) -> float:
    """Section 5.4's robustness floor ``(1/alpha) * log(m)`` scaled down.

    The trigger fires when a leaf holds far fewer samples than
    ``log(m) / alpha`` would predict; we return ``log(m)`` as the floor on
    the *sample* count (the population floor divided by the population-to-
    sample ratio ``1/alpha``).
    """
    return math.log(max(pool_size, 2))
