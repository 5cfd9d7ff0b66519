"""The static tree's nodes hold a full scan of their rectangles.

:class:`lib.spt.StaticPartitionTree` writes its scan into the tree's
exact-delta columns with no catch-up; each node must hold the count,
sum, sum of squares, min and max of exactly the rows its closed
rectangle contains, read here straight off the data.
"""

import math

import numpy as np
import pytest

from lib.spt import StaticPartitionTree, build_spt
from repro.core.queries import AggFunc, Query, Rectangle
from repro.partitioning.spec import TreeSpec

CASES = {
    # name: (predicate attrs, partitioner, k)
    "1d-bs": (("x",), "bs", 32),
    "1d-equidepth-duplicates": (("x",), "equidepth", 16),
    "2d-kd": (("x", "y"), "kd", 24),
}


def make_data(name):
    rng = np.random.default_rng(3)
    n = 4000
    x = rng.integers(0, 12, n).astype(float) if "duplicates" in name \
        else rng.uniform(0, 100, n)
    return np.column_stack([x, rng.uniform(0, 50, n),
                            rng.lognormal(0, 1, n)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_node_holds_the_scan_of_its_rectangle(name):
    pred, partitioner, k = CASES[name]
    data = make_data(name)
    spt = build_spt(data, ("x", "y", "a"), "a", pred, k=k,
                    partitioner=partitioner, seed=1)
    tree, table = spt.tree, spt.tree.table
    assert tree.n0 == 0 and not table.h.any()
    coords, stats = data[:, :len(pred)], data
    for node in tree.nodes():
        inside = stats[node.rect.contains_points(coords)]
        row = node.row
        assert table.delta_count[row] == inside.shape[0]
        for pos in range(stats.shape[1]):
            vals = inside[:, pos]
            assert table.dsum[row, pos] == pytest.approx(
                math.fsum(vals), rel=1e-12, abs=1e-9)
            assert table.dsumsq[row, pos] == pytest.approx(
                math.fsum(vals * vals), rel=1e-12, abs=1e-9)
            assert table.cmin[row, pos] == \
                (vals.min() if vals.size else math.inf)
            assert table.cmax[row, pos] == \
                (vals.max() if vals.size else -math.inf)
    assert table.delta_count[0] == data.shape[0]


def test_full_cover_over_an_empty_node_is_exact():
    """The scan proves an empty node holds nothing, so a full cover that
    includes one is exact for MIN/MAX as for SUM/COUNT/AVG."""
    leaves = [Rectangle((0.0,), (10.0,)),
              Rectangle((math.nextafter(10.0, math.inf),), (20.0,)),
              Rectangle((math.nextafter(20.0, math.inf),), (30.0,))]
    spec = TreeSpec.of([-1, 0, 0, 0], [Rectangle((0.0,), (30.0,))] + leaves)
    data = np.array([[1.0, 5.0], [2.0, 7.0], [0.0, 3.0], [25.0, 9.0]])
    spt = StaticPartitionTree(spec, ("x", "a"), ("x",), data)
    rect = Rectangle((-math.inf,), (20.0,))        # left leaf + empty mid
    want = {AggFunc.MIN: 3.0, AggFunc.MAX: 7.0, AggFunc.SUM: 15.0,
            AggFunc.COUNT: 3.0, AggFunc.AVG: 5.0}
    for agg, value in want.items():
        result = spt.query(Query(agg, "a", ("x",), rect))
        assert (result.estimate, result.exact, result.n_partial) == \
            (value, True, 0), agg
