"""Statistical calibration of the confidence intervals (Section 4.4.1).

The paper's CIs combine the catch-up variance nu_c and the sample
variance nu_s under a normal approximation.  These tests measure the
*empirical coverage* of the reported intervals over repeated synopsis
constructions: a 95% interval should contain the truth ~95% of the time
(we accept >= 85% to keep the tests fast and robust - small-sample CLT
slack is expected at these sample sizes).
"""

import numpy as np
import pytest

from repro.core import estimators
from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import AggFunc, Query, Rectangle
from repro.partitioning.spec import tree_from_intervals

Z95 = 1.96


class TestPartialEstimatorCoverage:
    def test_sum_partial_coverage(self):
        rng = np.random.default_rng(0)
        stratum = rng.lognormal(0, 1, 2000)
        predicate = stratum > 1.0
        truth = stratum[predicate].sum()
        covered = 0
        trials = 300
        for _ in range(trials):
            pick = rng.choice(2000, size=150, replace=False)
            matched = stratum[pick][predicate[pick]]
            c = estimators.sum_partial(2000.0, 150, matched)
            half = Z95 * np.sqrt(c.variance)
            covered += (c.estimate - half <= truth <= c.estimate + half)
        assert covered / trials >= 0.85

    def test_count_partial_coverage(self):
        rng = np.random.default_rng(1)
        flags = rng.random(2000) < 0.35
        truth = flags.sum()
        covered = 0
        trials = 300
        for _ in range(trials):
            pick = rng.choice(2000, size=150, replace=False)
            c = estimators.count_partial(2000.0, 150,
                                         int(flags[pick].sum()))
            half = Z95 * np.sqrt(c.variance)
            covered += (c.estimate - half <= truth <= c.estimate + half)
        assert covered / trials >= 0.85

    def test_intervals_not_vacuous(self):
        """Coverage must not come from infinitely wide intervals."""
        rng = np.random.default_rng(2)
        stratum = rng.lognormal(0, 1, 2000)
        predicate = stratum > 1.0
        truth = stratum[predicate].sum()
        widths = []
        for _ in range(100):
            pick = rng.choice(2000, size=150, replace=False)
            matched = stratum[pick][predicate[pick]]
            c = estimators.sum_partial(2000.0, 150, matched)
            widths.append(Z95 * np.sqrt(c.variance))
        # typical half-width well below the truth itself
        assert np.median(widths) < 0.5 * truth


class TestCatchupCoverage:
    def test_covered_node_sum_coverage(self):
        """CIs from catch-up statistics cover covered-node SUM truths."""
        rng = np.random.default_rng(3)
        n = 3000
        data = np.column_stack([rng.uniform(0, 100, n),
                                rng.lognormal(0, 1, n)])
        q = Query(AggFunc.SUM, "a", ("x",),
                  Rectangle((-np.inf,), (50.0,)))
        truth = data[data[:, 0] <= 50.0, 1].sum()
        spec_cuts = [25.0, 50.0, 75.0]
        covered = 0
        trials = 120
        for trial in range(trials):
            local = np.random.default_rng(trial)
            dpt = DynamicPartitionTree(
                tree_from_intervals(spec_cuts,
                                    Rectangle((0.0,), (100.0,))),
                ("x", "a"), ("x",))
            dpt.set_population(n)
            pick = local.choice(n, size=400, replace=False)
            dpt.add_catchup_rows(data[pick])
            res = dpt.query(q, lambda leaf: np.empty((0, 2)))
            lo, hi = res.ci(Z95)
            covered += (lo <= truth <= hi)
        assert covered / trials >= 0.85

    def test_variance_shrinks_as_sqrt_h(self):
        """Reported catch-up variance scales ~1/h (averaged over draws;
        a light-tailed value distribution keeps the per-draw sample
        variance stable so the 1/h scaling is visible)."""
        rng = np.random.default_rng(4)
        n = 4000
        data = np.column_stack([rng.uniform(0, 100, n),
                                rng.normal(10, 2, n)])
        q = Query(AggFunc.SUM, "a", ("x",),
                  Rectangle((-np.inf,), (np.inf,)))
        means = {}
        for h in (200, 800):
            draws = []
            for _ in range(20):
                dpt = DynamicPartitionTree(
                    tree_from_intervals([50.0],
                                        Rectangle((0.0,), (100.0,))),
                    ("x", "a"), ("x",))
                dpt.set_population(n)
                dpt.add_catchup_rows(
                    data[rng.choice(n, size=h, replace=False)])
                draws.append(dpt.query(
                    q, lambda leaf: np.empty((0, 2))).variance)
            means[h] = float(np.mean(draws))
        ratio = means[200] / means[800]
        assert 3.0 < ratio < 5.5          # ideal 4.0
