"""Tests for the re-partitioning triggers (Section 5.4 rules)."""

import math

import numpy as np
import pytest

from repro.core.dpt import DynamicPartitionTree
from repro.core.janus import JanusConfig
from repro.core.queries import AggFunc, Rectangle
from repro.core.triggers import RepartitionTrigger, TriggerAction
from repro.core.table import table_from_array
from repro.partitioning.maxvar import MaxVarOracle
from repro.partitioning.spec import tree_from_intervals
from repro.sampling.pool import SamplePool

SCHEMA = ("x", "a")


def build_world(n=2000, seed=0):
    """Table + sample pool (with index) + DPT wired like JanusAQP does."""
    rng = np.random.default_rng(seed)
    data = np.column_stack([rng.uniform(0, 100, n),
                            rng.lognormal(0, 1, n)])
    table = table_from_array(SCHEMA, data)
    spec = tree_from_intervals([25.0, 50.0, 75.0],
                               Rectangle((0.0,), (100.0,)))
    dpt = DynamicPartitionTree(spec, SCHEMA, ("x",))
    dpt.set_population(n)
    pool = SamplePool(table, sample_rate=0.05, min_pool=200, seed=2,
                      index_on=([0], 1))
    pool.initialize(dpt.leaf_ids_of)
    index, reservoir = pool.index, pool.reservoir
    oracle = MaxVarOracle(pool, AggFunc.SUM, pop_ratio=n / 200)
    return table, dpt, index, reservoir, pool, oracle


class TestBaseline:
    def test_rebase_records_all_leaves(self):
        _, dpt, _, _, pool, oracle = build_world()
        trig = RepartitionTrigger(JanusConfig(), oracle, pool)
        trig.rebase(dpt)
        assert set(trig.state.baseline) == \
            {leaf.node_id for leaf in dpt.leaves}

    def test_current_max_variance_positive(self):
        _, dpt, _, _, pool, oracle = build_world()
        trig = RepartitionTrigger(JanusConfig(), oracle, pool)
        assert trig.current_max_variance(dpt) > 0


class TestOnUpdate:
    def test_no_action_below_check_every(self):
        _, dpt, _, _, pool, oracle = build_world()
        trig = RepartitionTrigger(JanusConfig(check_every=100),
                                  oracle, pool)
        trig.rebase(dpt)
        leaf = dpt.leaves[0]
        for _ in range(99):
            assert trig.on_update_batch(dpt, [(leaf, 1)]) is \
                TriggerAction.NONE

    def test_forced_periodic(self):
        _, dpt, _, _, pool, oracle = build_world()
        trig = RepartitionTrigger(
            JanusConfig(repartition_every=10, check_every=1000),
            oracle, pool)
        trig.rebase(dpt)
        leaf = dpt.leaves[0]
        actions = [trig.on_update_batch(dpt, [(leaf, 1)])
                   for _ in range(10)]
        assert actions[-1] is TriggerAction.FORCED
        assert trig.state.n_forced == 1

    def test_under_represented_leaf_fires(self):
        _, dpt, _, _, pool, oracle = build_world()
        trig = RepartitionTrigger(JanusConfig(check_every=1), oracle,
                                  pool)
        trig.rebase(dpt)
        # an artificial leaf id with no samples at all
        from repro.core.node import NodeRef
        ghost = NodeRef(-1, 9999, Rectangle((200.0,), (300.0,)))
        action = trig.on_update_batch(dpt, [(ghost, 1)])
        assert action is TriggerAction.CANDIDATE

    def test_variance_drift_fires(self):
        table, dpt, index, reservoir, pool, oracle = build_world()
        trig = RepartitionTrigger(JanusConfig(check_every=1, beta=2.0),
                                  oracle, pool)
        trig.rebase(dpt)
        leaf = dpt.leaves[0]
        # inject extreme values into the leaf's sample region to blow up
        # its max variance by much more than beta
        tids = table.insert_many(np.tile([leaf.rect.hi[0] - 0.5, 1e6],
                                         (30, 1)))
        trig.pool_changed(pool.restore(reservoir.tids() + tids,
                                       dpt.leaf_ids_of))
        action = trig.on_update_batch(dpt, [(leaf, 1)])
        assert action is TriggerAction.CANDIDATE

    def test_stable_leaf_no_candidate(self):
        _, dpt, _, _, pool, oracle = build_world()
        trig = RepartitionTrigger(JanusConfig(check_every=1, beta=10.0),
                                  oracle, pool)
        trig.rebase(dpt)
        leaf = dpt.leaves[1]
        assert trig.on_update_batch(dpt, [(leaf, 1)]) is TriggerAction.NONE

    def test_default_floor_is_log_pool_size(self):
        """Under the default config a leaf holding fewer than ``log |S|``
        pooled rows is a candidate, and one at or above it is not."""
        _, dpt, _, reservoir, pool, oracle = build_world()
        leaf = dpt.leaves[0]
        inside = sorted(pool.tids(leaf.node_id))
        rest = sorted(set(reservoir.tids()) - set(inside))
        verdicts = {}
        for held in (5, 6):
            pool.restore(rest + inside[:held], dpt.leaf_ids_of)
            trig = RepartitionTrigger(JanusConfig(), oracle, pool)
            trig.rebase(dpt)              # no drift: only the floor can fire
            verdicts[held] = (held < math.log(len(pool)),
                              trig.on_update_batch(
                                  dpt, [(leaf, trig.config.check_every)]))
        assert verdicts == {5: (True, TriggerAction.CANDIDATE),
                            6: (False, TriggerAction.NONE)}


class TestConfirm:
    def test_commit_rule(self):
        _, dpt, _, _, pool, oracle = build_world()
        trig = RepartitionTrigger(JanusConfig(beta=10.0), oracle, pool)
        assert trig.confirm(new_max_variance=0.5, old_max_variance=100.0)
        assert not trig.confirm(new_max_variance=50.0,
                                old_max_variance=100.0)
        assert not trig.confirm(new_max_variance=0.0,
                                old_max_variance=0.0)


class TestLifetimeCounters:
    """The engine keeps ONE trigger: ``n_checks`` / ``n_candidates`` /
    ``n_forced`` are lifetime counts, not per-tree counts (they used to
    restart from 0 at every install)."""

    def _engine(self, **cfg):
        from repro.core.janus import JanusAQP
        from repro.core.table import Table
        from repro.datasets.synthetic import nyc_taxi
        ds = nyc_taxi(n=12_000, seed=1)
        table = Table(ds.schema)
        table.insert_many(ds.data[:6000])
        engine = JanusAQP(table, "fare", ("pickup_time",),
                          config=JanusConfig(k=48, sample_rate=0.03,
                                             seed=2, **cfg))
        engine.initialize()
        return engine, ds

    def test_counts_survive_every_kind_of_repartition(self, tmp_path):
        from repro.core.persist import load_synopsis, save_synopsis
        from repro.core.repartition import partial_repartition
        engine, ds = self._engine()
        trigger = engine.trigger
        assert trigger.config is engine.config      # one configuration
        seen = [(0, 0)]

        def step():
            state = engine.trigger.state
            assert engine.trigger is trigger
            assert state.n_checks >= seen[-1][0]
            assert state.n_candidates >= seen[-1][1]
            seen.append((state.n_checks, state.n_candidates))

        for b in range(30):       # this trace auto-repartitions early
            engine.insert_many(ds.data[6000 + 72 * b:6000 + 72 * (b + 1)])
            step()
        assert engine.n_repartitions >= 1
        assert seen[-1][1] > engine.n_repartitions    # and rejects some
        engine.reoptimize()
        step()
        partial_repartition(engine, engine.dpt.leaves[5], psi=2)
        step()
        path = str(tmp_path / "syn.npz")
        save_synopsis(engine, path)
        restored = load_synopsis(path, engine.table)
        state = restored.trigger.state
        assert (state.n_checks, state.n_candidates, state.n_forced) == \
            (seen[-1][0], seen[-1][1], 0)
        restored.insert_many(ds.data[9000:9300])
        assert restored.trigger.state.n_checks > seen[-1][0]

    def test_stagger_offset_lands_on_the_live_trigger(self):
        from repro.core.placement import stagger_trigger
        engine, ds = self._engine(repartition_every=1000,
                                  auto_repartition=False)
        stagger_trigger(engine, 1, 4)       # 250 of the 1000 already "used"
        trigger = engine.trigger
        assert trigger.state.updates_since_repartition == 250
        engine.insert_many(ds.data[6000:6740])
        assert (trigger.state.n_forced, engine.n_repartitions) == (0, 0)
        engine.insert_many(ds.data[6740:6750])          # 750th update
        assert (trigger.state.n_forced, engine.n_repartitions) == (1, 1)
        assert engine.trigger is trigger
        engine.insert_many(ds.data[6750:7750])          # a full period
        assert (trigger.state.n_forced, engine.n_repartitions) == (2, 2)


class TestEmptyPool:
    """An empty pool has nothing to partition: a due check neither
    rebuilds nor evaluates a candidate, so a write that emptied the
    table still succeeds (it used to raise out of a forced rebuild after
    the table had already dropped the rows)."""

    def test_forced_check_on_an_emptied_engine(self):
        from repro.core.janus import JanusAQP
        from repro.core.table import Table
        from repro.datasets.synthetic import nyc_taxi
        ds = nyc_taxi(n=3500, seed=0)
        table = Table(ds.schema)
        table.insert_many(ds.data[:3000])
        engine = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                          config=JanusConfig(k=8, repartition_every=100))
        engine.initialize()
        for b in range(6):
            engine.delete_many(range(500 * b, 500 * (b + 1)))
        assert len(engine.table) == len(engine.pool) == 0
        outcomes = {o: c.value for o, c in engine._c_checks.items()}
        assert outcomes == {"none": 0, "rejected": 0, "committed": 0,
                            "forced": 5, "error": 0}
        assert engine.trigger.state.n_forced == engine.n_repartitions == 5
        # Rows return: the first due check forces a rebuild as before.
        engine.insert_many(ds.data[3000:3500])
        assert engine.trigger.state.n_forced == engine.n_repartitions == 6

    def test_sharded_delete_that_empties_a_shard_reaches_every_shard(self):
        from repro.core.queries import Query
        from repro.core.sharded import ShardedJanusAQP
        from repro.datasets.synthetic import nyc_taxi
        ds = nyc_taxi(n=4000, seed=0)
        engine = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=2,
            sharding="attr", config=JanusConfig(k=8, repartition_every=100))
        engine.insert_many(ds.data)
        engine.initialize()
        assert engine.shard_sizes() == [2000, 2000]
        owners = np.array([engine.shard_of(t) for t in range(4000)])
        first = np.flatnonzero(owners == 1)[:50].tolist()
        engine.delete_many(np.flatnonzero(owners == 0).tolist() + first)
        live = engine._placement.owned_in(0, 4000)[0].size
        assert engine.shard_sizes() == [0, 1950]
        assert len(engine) == live == 1950
        d = len(ds.predicate_attrs)
        count = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                      Rectangle((-math.inf,) * d, (math.inf,) * d))
        assert engine.query(count).estimate == 1950
        engine.close()
