"""Tests for the epoch-tagged result cache (repro.service.cache)."""

import math

import pytest

from repro.core.queries import AggFunc, Query, QueryResult, Rectangle
from repro.service.cache import ResultCache, cache_key


def make_query(lo=0.0, hi=1.0, agg=AggFunc.SUM, attr="v",
               preds=("a",)):
    return Query(agg, attr, preds, Rectangle((lo,), (hi,)))


def make_result(estimate=1.0):
    return QueryResult(estimate, 0.1, 0.2, exact=False,
                       n_covered=3, n_partial=2)


class TestKeying:
    def test_key_distinguishes_agg_attr_and_bounds(self):
        base = make_query()
        assert cache_key(base) == cache_key(make_query())
        assert cache_key(base) != cache_key(make_query(agg=AggFunc.AVG))
        assert cache_key(base) != cache_key(make_query(attr="w"))
        assert cache_key(base) != cache_key(make_query(hi=2.0))

    def test_lookup_returns_stored_result(self):
        cache = ResultCache()
        query, result = make_query(), make_result()
        assert cache.store(query, result, 5, 5)
        assert cache.lookup(query, 5) is result

    def test_lookup_at_other_epoch_misses(self):
        cache = ResultCache()
        query = make_query()
        cache.store(query, make_result(), 5, 5)
        assert cache.lookup(query, 6) is None
        assert cache.lookup(query, 4) is None

    def test_store_rejected_when_epoch_moved_in_flight(self):
        cache = ResultCache()
        query = make_query()
        assert not cache.store(query, make_result(), 5, 6)
        assert cache.lookup(query, 5) is None
        assert cache.lookup(query, 6) is None
        assert cache.stats()["rejected_stores"] == 1

    def test_disabled_cache_is_a_noop(self):
        cache = ResultCache(enabled=False)
        query = make_query()
        assert not cache.store(query, make_result(), 1, 1)
        assert cache.lookup(query, 1) is None
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestLRU:
    def test_per_template_capacity_evicts_oldest(self):
        cache = ResultCache(per_template=2)
        q1, q2, q3 = (make_query(hi=float(i)) for i in (1, 2, 3))
        for q in (q1, q2, q3):
            cache.store(q, make_result(), 1, 1)
        assert cache.lookup(q1, 1) is None        # evicted
        assert cache.lookup(q2, 1) is not None
        assert cache.lookup(q3, 1) is not None
        assert cache.stats()["evictions"] == 1

    def test_lookup_refreshes_recency(self):
        cache = ResultCache(per_template=2)
        q1, q2, q3 = (make_query(hi=float(i)) for i in (1, 2, 3))
        cache.store(q1, make_result(), 1, 1)
        cache.store(q2, make_result(), 1, 1)
        cache.lookup(q1, 1)                       # q1 now most recent
        cache.store(q3, make_result(), 1, 1)      # evicts q2
        assert cache.lookup(q1, 1) is not None
        assert cache.lookup(q2, 1) is None

    def test_templates_do_not_evict_each_other(self):
        cache = ResultCache(per_template=1)
        qa = make_query(attr="v")
        qb = make_query(attr="w")
        cache.store(qa, make_result(1.0), 1, 1)
        cache.store(qb, make_result(2.0), 1, 1)
        assert cache.lookup(qa, 1).estimate == 1.0
        assert cache.lookup(qb, 1).estimate == 2.0
        assert len(cache) == 2

    def test_old_epoch_entries_cycle_out(self):
        cache = ResultCache(per_template=4)
        query = make_query()
        for epoch in range(10):
            cache.store(query, make_result(float(epoch)), epoch, epoch)
        assert cache.lookup(query, 9).estimate == 9.0
        assert cache.lookup(query, 5) is None     # evicted by capacity
        assert len(cache) == 4

    def test_stats_and_clear(self):
        cache = ResultCache()
        query = make_query()
        cache.lookup(query, 1)
        cache.store(query, make_result(), 1, 1)
        cache.lookup(query, 1)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(query, 1) is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(per_template=0)

    def test_infinite_bounds_are_hashable_keys(self):
        query = make_query(lo=-math.inf, hi=math.inf)
        cache = ResultCache()
        cache.store(query, make_result(), 1, 1)
        assert cache.lookup(query, 1) is not None


class TestEngineEpochHooks:
    """Every mutation kind bumps the engines' data_epoch (ISSUE 5)."""

    @pytest.fixture(scope="class")
    def ds(self):
        from repro.datasets.synthetic import nyc_taxi
        return nyc_taxi(n=8_000, seed=0)

    def build(self, ds):
        from repro.core.janus import JanusAQP, JanusConfig
        from repro.core.table import Table
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:5_000])
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=JanusConfig(k=8, sample_rate=0.04,
                                            check_every=10 ** 9,
                                            seed=0))
        janus.initialize()
        return janus

    def test_janus_bumps_on_every_mutation_kind(self, ds):
        from repro.core.repartition import partial_repartition
        janus = self.build(ds)
        epoch = janus.data_epoch
        assert epoch > 0                       # initialize itself bumped

        tids = janus.insert_many(ds.data[5_000:5_100])
        assert janus.data_epoch > epoch
        epoch = janus.data_epoch

        janus.delete_many(tids[:50])
        assert janus.data_epoch > epoch
        epoch = janus.data_epoch

        janus.reoptimize()
        assert janus.data_epoch > epoch
        epoch = janus.data_epoch

        partial_repartition(janus, janus.dpt.leaves[0], psi=1)
        assert janus.data_epoch > epoch

    def test_janus_async_reoptimize_bumps(self, ds):
        janus = self.build(ds)
        epoch = janus.data_epoch
        janus.reoptimize_async().join()
        assert janus.data_epoch > epoch

    def test_queries_do_not_bump(self, ds):
        from repro.core.queries import AggFunc, Query, Rectangle
        janus = self.build(ds)
        epoch = janus.data_epoch
        janus.query(Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                          Rectangle((0.0,), (100.0,))))
        assert janus.data_epoch == epoch

    def test_sharded_epoch_is_fleet_monotone(self, ds):
        from repro.core.janus import JanusConfig
        from repro.core.sharded import ShardedJanusAQP
        sharded = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=2,
            config=JanusConfig(k=8, sample_rate=0.04,
                               check_every=10 ** 9, seed=0))
        tids = sharded.insert_many(ds.data[:2_000])
        sharded.initialize()
        seen = [sharded.data_epoch]
        sharded.insert_many(ds.data[2_000:2_100])
        seen.append(sharded.data_epoch)
        sharded.delete_many(tids[:64])
        seen.append(sharded.data_epoch)
        sharded.reoptimize()
        seen.append(sharded.data_epoch)
        sharded.rebalance_range(0, 500, dst=1)
        seen.append(sharded.data_epoch)
        assert all(b > a for a, b in zip(seen, seen[1:])), seen
        sharded.close()

    def test_manager_and_router_expose_epochs(self, ds):
        from repro.core.janus import JanusConfig
        from repro.core.table import Table
        from repro.core.templates import HeuristicRouter, SynopsisManager
        table = Table(ds.schema, capacity=ds.n + 16)
        manager = SynopsisManager(table, config=JanusConfig(
            k=8, sample_rate=0.04, check_every=10 ** 9, seed=0))
        manager.insert_many(ds.data[:1_000])   # no template yet
        epoch = manager.data_epoch
        assert epoch > 0
        manager.add_template(ds.agg_attr, ds.predicate_attrs)
        assert manager.data_epoch > epoch
        epoch = manager.data_epoch
        manager.insert_many(ds.data[1_000:1_100])
        assert manager.data_epoch > epoch

        router = HeuristicRouter(self.build(ds))
        epoch = router.data_epoch
        router.repartition_for(ds.predicate_attrs)
        assert router.data_epoch > epoch       # never reuses an epoch
