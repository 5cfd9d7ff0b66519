"""Serving walkthrough: the AQP engine behind an HTTP/JSON service.

Run:  PYTHONPATH=src python examples/serving.py

Starts a :class:`~repro.service.server.AQPServer` over a 4-shard
engine on an ephemeral port, then drives it the way a client
application would: ingest over ``/insert``, aggregates over ``/sql``
and ``/query``, a concurrent burst to show micro-batching, a repeated
statement to show the epoch cache, and ``/stats`` to read the
counters back.  ``main(n=...)`` accepts a reduced row count so the
smoke test (``tests/test_examples.py``) can execute the identical
code cheaply.  The long-running variant of the same thing is
``python -m repro.service``.
"""

from concurrent.futures import ThreadPoolExecutor

from repro import JanusConfig, ShardedJanusAQP
from repro.datasets import nyc_taxi
from repro.service import ServiceClient, serve_background


def main(n: int = 40_000) -> None:
    # 1. An engine, as in quickstart - but nothing below this line will
    #    touch it in-process: every interaction goes over HTTP.
    ds = nyc_taxi(n=n, seed=7)
    engine = ShardedJanusAQP(
        ds.schema, agg_attr="trip_distance",
        predicate_attrs=("pickup_time",), n_shards=4,
        config=JanusConfig(k=16, sample_rate=0.02, seed=0))
    engine.insert_many(ds.data[: n // 2])
    engine.initialize()

    # 2. Serve it.  port=0 picks an ephemeral port; serve_background
    #    runs the asyncio server on a daemon thread and hands back a
    #    stoppable handle (a context manager).
    with serve_background(engine, port=0) as handle:
        print(f"serving {len(engine.table):,} rows on "
              f"http://{handle.host}:{handle.port}")

        with ServiceClient(handle.host, handle.port) as client:
            # 3. Stream the second half of the data over HTTP.
            for start in range(n // 2, n, max(n // 8, 1)):
                client.insert_many(ds.data[start:start + max(n // 8, 1)])
            print(f"ingested over HTTP -> {len(engine.table):,} rows, "
                  f"data epoch {client.stats()['engine']['data_epoch']}")

            # 4. Ask in SQL.  The WHERE columns must belong to the
            #    engine's predicate template; strict bounds and
            #    unconstrained dimensions are handled by the compiler.
            sql = ("SELECT SUM(trip_distance) FROM trips "
                   "WHERE pickup_time BETWEEN 100 AND 400")
            result = client.sql(sql)
            lo, hi = result.ci()
            print(f"\n{sql}\n  estimate = {result.estimate:,.1f}   "
                  f"95% CI [{lo:,.1f}, {hi:,.1f}]")
            for statement in (
                    "SELECT COUNT(*) FROM trips",
                    "SELECT AVG(trip_distance) FROM trips "
                    "WHERE pickup_time >= 250",
                    "SELECT MAX(trip_distance) FROM trips "
                    "WHERE pickup_time < 200"):
                result = client.sql(statement)
                print(f"  {statement!r:>70} -> {result.estimate:,.2f}")

            # 5. The same statement again: answered from the epoch
            #    cache without touching the synopsis (watch 'cached').
            repeat = client.sql(sql)
            print(f"\nrepeat of the first statement: "
                  f"cached={repeat.details['cached']}, same estimate "
                  f"{repeat.estimate:,.1f}")

        # 6. A concurrent burst: 16 clients issue one query each; the
        #    admission layer coalesces them into query_many batches.
        stats_before = handle.server.batcher.stats()["n_batches"]

        def one(i: int) -> float:
            with ServiceClient(handle.host, handle.port) as c:
                lo = 50.0 * (i % 8)
                return c.sql(f"SELECT SUM(trip_distance) FROM trips "
                             f"WHERE pickup_time BETWEEN {lo} "
                             f"AND {lo + 120}").estimate
        with ThreadPoolExecutor(max_workers=16) as pool:
            estimates = list(pool.map(one, range(16)))
        batch_stats = handle.server.batcher.stats()
        print(f"\nburst of 16 concurrent queries -> "
              f"{batch_stats['n_batches'] - stats_before} engine "
              f"batch(es), largest batch {batch_stats['max_batch_size']} "
              f"queries "
              f"(sum of estimates {sum(estimates):,.0f})")

        # 7. Counters, as an operator would scrape them.
        with ServiceClient(handle.host, handle.port) as client:
            stats = client.stats()
        print(f"\n/stats: {stats['engine']['rows']:,} rows across "
              f"{stats['engine']['n_shards']} shards, "
              f"cache hit ratio {stats['cache']['hit_ratio']:.0%}, "
              f"avg batch {stats['batcher']['avg_batch_size']:.1f}")
    engine.close()
    print("server stopped cleanly")


if __name__ == "__main__":
    main()
