"""Tests for the static partition tree (PASS)."""

import math

import numpy as np
import pytest

from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.spt import build_spt

SCHEMA = ("x", "a")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return np.column_stack([rng.uniform(0, 100, 3000),
                            rng.lognormal(0, 1, 3000)])


@pytest.fixture(scope="module")
def spt(data):
    return build_spt(data, SCHEMA, "a", ("x",), k=16, sample_rate=0.05,
                     partitioner="bs", seed=1)


def truth(data, lo, hi, agg):
    mask = (data[:, 0] >= lo) & (data[:, 0] <= hi)
    vals = data[mask, 1]
    return {"count": mask.sum(), "sum": vals.sum(),
            "avg": vals.mean() if vals.size else math.nan,
            "min": vals.min() if vals.size else math.nan,
            "max": vals.max() if vals.size else math.nan}[agg]


class TestConstruction:
    def test_k_leaves(self, spt):
        assert spt.k == 16

    @pytest.mark.parametrize("partitioner", ["bs", "dp", "equidepth", "kd"])
    def test_partitioner_choices(self, data, partitioner):
        s = build_spt(data[:500], SCHEMA, "a", ("x",), k=8,
                      partitioner=partitioner, seed=0)
        assert s.k <= 8

    def test_unknown_partitioner(self, data):
        """Unknown names raise at every d, the 1-D-only ones above it."""
        data3 = np.column_stack([data[:100], data[:100, 0]])
        for pred, name in ((("x",), "magic"), (("x", "y"), "magic"),
                           (("x", "y"), "dp"), (("x", "y"), "equidepth")):
            with pytest.raises(ValueError):
                build_spt(data3, ("x", "a", "y"), "a", pred, k=4,
                          partitioner=name)

    def test_multidim_build(self):
        rng = np.random.default_rng(1)
        data3 = np.column_stack([rng.uniform(0, 10, 1000),
                                 rng.uniform(0, 10, 1000),
                                 rng.normal(5, 2, 1000)])
        s = build_spt(data3, ("x", "y", "a"), "a", ("x", "y"), k=8, seed=0)
        assert s.k == 8
        q = Query(AggFunc.SUM, "a", ("x", "y"),
                  Rectangle((-math.inf, -math.inf),
                            (math.inf, math.inf)))
        res = s.query(q)
        assert res.estimate == pytest.approx(data3[:, 2].sum())


class TestExactness:
    def test_full_domain_sum_exact(self, spt, data):
        q = Query(AggFunc.SUM, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = spt.query(q)
        assert res.estimate == pytest.approx(truth(data, -1e18, 1e18, "sum"))
        assert res.exact
        assert res.variance == 0.0

    def test_full_domain_count_exact(self, spt, data):
        q = Query(AggFunc.COUNT, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        assert spt.query(q).estimate == pytest.approx(3000)

    def test_full_domain_minmax_exact(self, spt, data):
        for agg, key in ((AggFunc.MIN, "min"), (AggFunc.MAX, "max")):
            q = Query(agg, "a", ("x",),
                      Rectangle((-math.inf,), (math.inf,)))
            assert spt.query(q).estimate == pytest.approx(
                truth(data, -1e18, 1e18, key))


class TestPartialQueries:
    def test_partial_estimate_close(self, spt, data):
        rng = np.random.default_rng(3)
        rel_errors = []
        for _ in range(40):
            lo = rng.uniform(0, 60)
            hi = lo + rng.uniform(10, 40)
            q = Query(AggFunc.SUM, "a", ("x",), Rectangle((lo,), (hi,)))
            t = truth(data, lo, hi, "sum")
            if t == 0:
                continue
            res = spt.query(q)
            rel_errors.append(abs(res.estimate - t) / t)
        assert np.median(rel_errors) < 0.15

    def test_variance_reported_for_partial(self, spt):
        q = Query(AggFunc.SUM, "a", ("x",), Rectangle((13.0,), (14.5,)))
        res = spt.query(q)
        assert not res.exact
        # tiny query inside one leaf: pure sample estimation
        assert res.n_partial >= 1

    def test_ci_coverage(self, spt, data):
        """~95% CIs should cover the truth most of the time."""
        rng = np.random.default_rng(9)
        covered, total = 0, 0
        for _ in range(60):
            lo = rng.uniform(0, 50)
            hi = lo + rng.uniform(20, 50)
            q = Query(AggFunc.SUM, "a", ("x",), Rectangle((lo,), (hi,)))
            t = truth(data, lo, hi, "sum")
            if t == 0:
                continue
            res = spt.query(q)
            lo_ci, hi_ci = res.ci(z=1.96)
            covered += (lo_ci <= t <= hi_ci)
            total += 1
        assert covered / total > 0.75
