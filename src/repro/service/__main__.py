"""CLI entry point: ``python -m repro.service``.

Starts an :class:`~repro.service.server.AQPServer` over either

* a warm-started :class:`~repro.core.sharded.ShardedJanusAQP` restored
  from a :func:`~repro.core.persist.save_sharded` directory
  (``--load DIR``), or
* a demo engine seeded from a named synthetic dataset
  (``--dataset``/``--rows``), sharded when ``--shards > 1``, or
* a process-per-shard :class:`~repro.service.fleet.FleetCoordinator`
  (``--workers N``): the demo (or ``--load``) snapshot is served by
  ``N`` supervised worker processes, one shard each, so query fan-out
  runs on ``N`` independent GILs.

Examples::

    PYTHONPATH=src python -m repro.service --port 8080 --shards 4
    PYTHONPATH=src python -m repro.service --port 8080 --workers 4
    PYTHONPATH=src python -m repro.service --load /var/lib/janus/snap

Runs until interrupted (Ctrl-C shuts down gracefully).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from ..core.janus import JanusAQP, JanusConfig
from ..core.sharded import ShardedJanusAQP
from ..core.table import Table
from ..datasets import synthetic
from .server import AQPServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve approximate aggregate queries over HTTP/JSON.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="0 picks an ephemeral port")
    parser.add_argument("--load", metavar="DIR", default=None,
                        help="warm-start from a save_sharded() directory")
    parser.add_argument("--shards", type=int, default=1,
                        help="shard count for a fresh demo engine")
    parser.add_argument("--workers", type=int, default=0,
                        help="serve through a process-per-shard fleet "
                             "of N worker processes (0 = in-process)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="cap the in-process fan-out pool / fleet "
                             "dispatch pool (default: min(shards, "
                             "cpu_count))")
    parser.add_argument("--dataset", default="nyc_taxi",
                        help="synthetic dataset seeding the demo engine")
    parser.add_argument("--rows", type=int, default=50_000,
                        help="rows to seed the demo engine with")
    parser.add_argument("--k", type=int, default=64,
                        help="partition-tree leaves (per shard)")
    parser.add_argument("--sample-rate", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-batch", type=int, default=64,
                        help="micro-batch size cap")
    parser.add_argument("--linger-ms", type=float, default=2.0,
                        help="longest a query may wait parked behind "
                             "a busy engine lane")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="result-cache entries per template "
                             "(also the /sql statement memo's size)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="log a one-line JSON event for any "
                             "/query or /sql slower than this many "
                             "milliseconds")
    parser.add_argument("--trace-sample", type=int, default=64,
                        help="trace 1 in N read requests (0 disables "
                             "sampling; explain and X-Janus-Trace "
                             "still trace)")
    return parser


def build_engine(args: argparse.Namespace):
    if args.workers > 0:
        return _build_fleet(args)
    if args.load is not None:
        from ..core.persist import load_sharded
        engine = load_sharded(args.load)
        print(f"warm-started {engine.n_shards} shard(s), "
              f"{len(engine.table):,} rows from {args.load}")
        return engine
    ds = synthetic.load(args.dataset, n=args.rows, seed=args.seed)
    config = JanusConfig(k=args.k, sample_rate=args.sample_rate,
                         seed=args.seed)
    if args.shards > 1:
        engine = ShardedJanusAQP(ds.schema, ds.agg_attr,
                                 ds.predicate_attrs,
                                 n_shards=args.shards,
                                 max_workers=args.max_workers,
                                 config=config)
        engine.insert_many(ds.data)
        engine.initialize()
    else:
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        engine = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                          config=config)
        engine.initialize()
    print(f"seeded {args.dataset}: {len(engine.table):,} rows, "
          f"{args.shards} shard(s), template "
          f"{ds.agg_attr} / {', '.join(ds.predicate_attrs)}")
    return engine


def _build_fleet(args: argparse.Namespace):
    """Spawn a :class:`FleetCoordinator` over ``--workers`` processes.

    With ``--load`` the given snapshot directory is served directly
    (its shard count wins over ``--workers``); otherwise a demo
    sharded engine is built, snapshotted to a temp directory, closed,
    and the fleet warm-starts every worker from that snapshot.
    """
    import tempfile

    from .fleet import FleetCoordinator

    if args.load is not None:
        snapdir = args.load
    else:
        ds = synthetic.load(args.dataset, n=args.rows, seed=args.seed)
        config = JanusConfig(k=args.k, sample_rate=args.sample_rate,
                             seed=args.seed)
        seed_engine = ShardedJanusAQP(ds.schema, ds.agg_attr,
                                      ds.predicate_attrs,
                                      n_shards=args.workers,
                                      max_workers=args.max_workers,
                                      config=config)
        seed_engine.insert_many(ds.data)
        seed_engine.initialize()
        snapdir = tempfile.mkdtemp(prefix="janus-fleet-")
        from ..core.persist import save_sharded
        save_sharded(seed_engine, snapdir)
        seed_engine.close()
    engine = FleetCoordinator(snapdir, max_workers=args.max_workers)
    print(f"fleet up: {engine.n_shards} worker process(es), "
          f"{len(engine):,} rows from {snapdir}")
    return engine


async def serve(args: argparse.Namespace) -> None:
    engine = build_engine(args)
    server = AQPServer(engine, host=args.host, port=args.port,
                       max_batch=args.max_batch,
                       max_linger_ms=args.linger_ms,
                       cache_size=args.cache_size,
                       cache_enabled=not args.no_cache,
                       slow_query_ms=args.slow_query_ms,
                       trace_sample=args.trace_sample)
    host, port = await server.start()
    print(f"serving on http://{host}:{port}  "
          f"(routes: /query /sql /insert /delete /stats /metrics "
          f"/debug/traces)")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:     # non-Unix event loops
            pass
    try:
        await stop.wait()
    finally:
        await server.stop()
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(serve(args))
    except KeyboardInterrupt:
        pass
    print("shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
