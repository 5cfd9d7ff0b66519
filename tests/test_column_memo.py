"""The node table's estimate memo is dropped by every mutator.

A tree reads node estimates as whole columns, memoized on its
:class:`~repro.core.node.NodeTable` until the next write.  Two trees
take the same random sequence of writes - insert, delete, catch-up,
subtree catch-up, rescale, ``replace_subtree``, SPT exact-base writes,
``set_population`` - and after every step answer lone queries and a
64-query batch over all seven tree aggregates; one keeps its memo, the
other's is emptied before every read.  Their answers must agree to the
bit, so a mutator that leaves a stale column behind fails here.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import AggFunc, Query, Rectangle
from repro.partitioning.spec import TreeSpec, tree_from_intervals

SCHEMA = ("x", "a", "b")
AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX,
        AggFunc.VARIANCE, AggFunc.STDDEV)
KINDS = ("insert", "delete", "catchup", "subtree", "rescale", "replace",
         "exact", "population")


def build() -> DynamicPartitionTree:
    cuts = np.linspace(0.0, 100.0, 33)[1:-1]
    return DynamicPartitionTree(
        tree_from_intervals(cuts, Rectangle((0.0,), (100.0,))), SCHEMA,
        ("x",), minmax_attrs=("a",), minmax_k=4)


def draw(rng, n, lo=-10.0, hi=110.0) -> np.ndarray:
    return np.column_stack([rng.uniform(lo, hi, n),
                            rng.normal(50.0, 20.0, n), rng.normal(size=n)])


SAMPLES = draw(np.random.default_rng(0), 300)
_rng = np.random.default_rng(1)
QUERIES = []
for _i in range(64):
    _lo = _rng.uniform(-10.0, 100.0)
    QUERIES.append(Query(AGGS[_i % len(AGGS)], "a", ("x",), Rectangle(
        (_lo,), (_lo + _rng.uniform(1.0, 60.0),))))


def answers(tree: DynamicPartitionTree, forget: bool) -> list:
    ids = tree.leaf_ids_of(SAMPLES)

    def leaf_samples(leaf):
        return SAMPLES[ids == leaf.node_id]
    out = []
    for q in QUERIES[:len(AGGS)]:
        if forget:
            tree.table._memo.clear()
        out.append(tree.query_many([q], leaf_samples)[0])
    if forget:
        tree.table._memo.clear()
    out += tree.query_many(QUERIES, leaf_samples)
    return [repr(r) for r in out]


def inside(rng, rect, n) -> np.ndarray:
    lo, hi = max(rect.lo[0], -10.0), min(rect.hi[0], 110.0)
    return draw(rng, n, lo, max(lo, hi))


def apply(tree: DynamicPartitionTree, kind: str, seed: int,
          inserted: list) -> None:
    """One write of ``kind``; its choices depend on ``seed`` and the
    tree's shape only, so twins take the same step."""
    rng = np.random.default_rng(seed)
    nodes = tree.nodes()
    inner = [n for n in nodes if tree.children(n)]
    pick = nodes[int(rng.integers(len(nodes)))]
    n = int(rng.integers(1, 40))
    if kind == "insert":
        rows = draw(rng, n)
        inserted.append(rows)
        tree.insert_rows(rows)
    elif kind == "delete":
        rows = np.concatenate(inserted) if inserted else draw(rng, n)
        tree.delete_rows(rows[rng.integers(0, len(rows), n)])
    elif kind == "catchup":
        tree.add_catchup_rows(draw(rng, n))
    elif kind == "subtree":
        node = inner[int(rng.integers(len(inner)))]
        tree.add_catchup_rows(inside(rng, node.rect, n), node)
    elif kind == "rescale":
        rows = tree.table.subtree(pick.row)
        tree.table.rescale(range(max(rows.start, 1), rows.stop),
                     float(rng.uniform(0.5, 2.0)))
    elif kind == "replace":
        node = inner[int(rng.integers(len(inner)))]
        lo, hi = max(node.rect.lo[0], -10.0), min(node.rect.hi[0], 110.0)
        mid = lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)
        left, right = node.rect.split(0, mid)
        tree.replace_subtree(node, TreeSpec.of([-1, 0, 0],
                                               [node.rect, left, right]))
    elif kind == "exact":
        vals = draw(rng, n)
        tree.table.set_exact_base(pick.row, n, vals.sum(axis=0),
                            (vals * vals).sum(axis=0),
                            mins=vals.min(axis=0), maxs=vals.max(axis=0))
    else:
        tree.set_population(int(rng.integers(0, 10 ** 5)))


def run(ops) -> None:
    kept, fresh = build(), build()
    logs = ([], [])
    assert answers(kept, False) == answers(fresh, True)
    for step, (kind, seed) in enumerate(ops):
        for tree, log in zip((kept, fresh), logs):
            apply(tree, kind, seed, log)
        assert answers(kept, False) == answers(fresh, True), (step, kind)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(KINDS),
                              st.integers(0, 2 ** 31 - 1)),
                    min_size=2, max_size=12))
def test_memoized_answers_equal_fresh_ones(ops):
    run(ops)


def test_every_mutator_after_every_read():
    """Each write kind right after a read of every column, twice."""
    run([(kind, seed) for seed in (3, 4) for kind in
         ("insert", "catchup") + KINDS])
