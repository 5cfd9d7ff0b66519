"""Query serving layer: an async HTTP/JSON front-end for the engine.

The subsystem turns the in-process batched engine (PRs 1-4) into a
client-facing AQP service, stdlib only:

* :mod:`~repro.service.sqlfront` - a SQL-subset parser compiling
  ``SELECT AGG(col) FROM t WHERE a BETWEEN x AND y [AND ...]`` into
  :class:`~repro.core.queries.Query` objects;
* :mod:`~repro.service.batcher` - micro-batching admission that
  coalesces concurrently in-flight requests into ``query_many`` calls;
* :mod:`~repro.service.cache` - an epoch-tagged per-template LRU result
  cache invalidated structurally by the engines' ``data_epoch``;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` - the
  asyncio HTTP/1.1 server (``/query``, ``/sql``, ``/insert``,
  ``/delete``, ``/stats``, ``/metrics``, ``/debug/traces``) and the
  thin synchronous client the tests and benchmark drive it with -
  metrics ride the shared :mod:`repro.obs` registry, reads are
  span-traced at 1-in-N sampling, and ``"explain": true`` returns
  per-stage timings plus the routing decision;
* :mod:`~repro.service.fleet` / :mod:`~repro.service.worker` - the
  process-per-shard serving fleet (``--workers N``): one supervised
  worker process per shard behind a binary frame protocol
  (:mod:`repro.broker.frames`), bit-identical to the in-process
  sharded engine and free of its single shared GIL.

``python -m repro.service`` starts a server from the command line; see
``examples/serving.py`` for the end-to-end walkthrough and
``docs/ARCHITECTURE.md`` for the request data flow.
"""

from .batcher import MicroBatcher
from .cache import ResultCache
from .client import ServiceClient, ServiceError
from .fleet import FleetCoordinator, FleetUnavailableError
from .server import AQPServer, ServiceHandle, serve_background
from .sqlfront import ParsedSQL, SQLError, compile_sql, parse_sql

__all__ = [
    "AQPServer", "FleetCoordinator", "FleetUnavailableError",
    "MicroBatcher", "ParsedSQL", "ResultCache", "SQLError",
    "ServiceClient", "ServiceError", "ServiceHandle", "compile_sql",
    "parse_sql", "serve_background",
]
