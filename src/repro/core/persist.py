"""Synopsis persistence: save/load a JanusAQP state snapshot.

A deployed AQP service must survive restarts without re-running the full
initialization pipeline.  The synopsis state is small by design (that is
the point of the paper): the partition-tree node statistics plus the
pooled sample rows.  We serialize both into a single ``.npz`` archive -
flat numpy arrays plus one JSON metadata string, no pickling - and
restore against the same archival table.

What is saved: the tree structure (parent links + rectangles), every
node's catch-up accumulators / exact deltas / base statistics, the
MIN/MAX heap contents, the epoch population ``n0``, the pooled sample
(tids + rows), the trigger's lifetime counts and the configuration.
What is *not* saved: the trigger baselines (recomputed on load) and any
in-flight catch-up progress beyond the accumulators (already folded into
the statistics).

A sharded fleet persists as a *directory*: one synopsis archive per
initialized shard plus a manifest (:func:`save_sharded` /
:func:`load_sharded`) carrying the placement mode, ``range_block``, the
global-to-(shard, local)-tid maps and each shard's archival table
contents, so a serving tier can warm-start the whole fleet instead of
re-ingesting and re-partitioning.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..partitioning.spec import PartitionNode
from .dpt import DynamicPartitionTree
from .janus import JanusAQP, JanusConfig
from .node import DPTNode, NodeTable
from .placement import PlacementMap, stagger_trigger
from .queries import AggFunc, Rectangle
from .routing import ShardSummary
from .sharded import LocalShard, ShardedJanusAQP
from .table import Table

_FORMAT_VERSION = 1
#: v2 adds the query router's placement template (``route_attr``,
#: ``attr_bounds``) and the per-shard routing summaries; v1 manifests
#: still load (summaries are rebuilt exactly from the restored tables).
_SHARDED_FORMAT_VERSION = 2
_MANIFEST = "manifest.npz"


@dataclasses.dataclass
class _SynopsisMeta:
    """A synopsis archive's JSON ``meta`` entry, field for key: written
    with ``asdict``, read with ``_SynopsisMeta(**meta)``, so a key only
    one side knows is a ``TypeError`` at load."""

    version: int
    schema: List[str]
    agg_attr: str
    predicate_attrs: List[str]
    stat_attrs: List[str]
    n0: int
    n_repartitions: int
    config: dict
    minmax: List[Dict]
    minmax_attrs: List[str]
    #: Lifetime trigger counts; archives older than them restart at 0.
    trigger_counts: Sequence[int] = (0, 0, 0)


@dataclasses.dataclass
class _ManifestMeta:
    """A fleet manifest's ``meta`` entry (see :class:`_SynopsisMeta`)."""

    version: int
    schema: List[str]
    agg_attr: str
    predicate_attrs: List[str]
    stat_attrs: List[str]
    n_shards: int
    sharding: str
    range_block: int
    next_tid: int
    initialized: List[bool]
    table_next_tids: List[int]
    config: dict
    #: The v2 placement template; a v1 manifest has neither.
    route_attr: Optional[str] = None
    has_attr_bounds: bool = False


def _config_dict(config: JanusConfig) -> dict:
    """A :class:`JanusConfig` as JSON (:func:`_config_from` undoes it)."""
    return dict(dataclasses.asdict(config),
                focus_agg=config.focus_agg.value)


def _config_from(config: dict) -> JanusConfig:
    return JanusConfig(**dict(config,
                              focus_agg=AggFunc(config["focus_agg"])))


def save_synopsis(janus: JanusAQP, path: str) -> None:
    """Serialize a JanusAQP synopsis to ``path`` (.npz archive)."""
    np.savez_compressed(path, **_synopsis_payload(janus))


def _synopsis_payload(janus: JanusAQP) -> Dict[str, object]:
    """Gather everything :func:`save_synopsis` writes, as fresh arrays.

    Split out so :func:`save_sharded` can copy every shard's state
    under the fleet locks and pay for compression and disk IO *after*
    releasing them.
    """
    dpt = janus.dpt
    if dpt is None:
        raise RuntimeError("cannot save an uninitialized synopsis")
    nodes = list(dpt.nodes())
    n = len(nodes)
    table = dpt._table              # rows are in nodes() order
    minmax_payload: List[Dict] = [{
        str(pos): {
            "max": mm._max.values(), "min": mm._min.values(),
            "max_exact": mm._max.exact, "min_exact": mm._min.exact,
        } for pos, mm in node.minmax.items()} for node in nodes]

    pool_tids = np.array(janus.reservoir.tids(), dtype=np.int64)
    pool_rows = janus.pool.rows(pool_tids)

    state = janus.trigger.state
    meta = _SynopsisMeta(
        version=_FORMAT_VERSION,
        schema=list(janus.table.schema),
        agg_attr=janus.agg_attr,
        predicate_attrs=list(janus.predicate_attrs),
        stat_attrs=list(dpt.stat_attrs),
        n0=dpt.n0,
        n_repartitions=janus.n_repartitions,
        config=_config_dict(janus.config),
        minmax=minmax_payload,
        minmax_attrs=[dpt.stat_attrs[p] for p in
                      sorted(nodes[0].minmax)] if nodes else [],
        trigger_counts=[state.n_checks, state.n_candidates,
                        state.n_forced])
    payload = dict(
        meta=json.dumps(dataclasses.asdict(meta)),
        parent=table.parent.copy(),
        rect_lo=table.lo[:n].copy(), rect_hi=table.hi[:n].copy(),
        **{name: getattr(table, name).copy() for name in NodeTable.FIELDS},
        pool_tids=pool_tids, pool_rows=pool_rows)
    # Canonical sketch blobs ride as uint8 arrays keyed by the attr's
    # position in config.sketch_attrs and the per-attr kind order -
    # deterministic keys, no new meta entries.  ``_sketches`` is read
    # directly (like the reservoir above): the caller already holds the
    # engine lock for the whole snapshot gather.
    for i, attr in enumerate(janus.config.sketch_attrs):
        bank = janus._sketches[attr]
        for j, kind in enumerate(sorted(bank)):
            payload[f"sketch{i}_{j}"] = np.frombuffer(
                bank[kind].to_bytes(), dtype=np.uint8)
    return payload


def load_synopsis(path: str, table: Table,
                  metrics: Optional[MetricsRegistry] = None,
                  metrics_labels: Optional[Dict[str, str]] = None
                  ) -> JanusAQP:
    """Restore a synopsis saved by :func:`save_synopsis`.

    ``table`` must be the same archival store (or a restored copy with
    the same schema and tids); pool members whose tuples no longer exist
    are dropped.  ``metrics`` / ``metrics_labels`` go to the engine's
    constructor (a restored shard registers its series on its
    coordinator's registry, like a freshly built one).
    """
    with np.load(path, allow_pickle=False) as archive:
        meta = _SynopsisMeta(**json.loads(str(archive["meta"])))
        if meta.version != _FORMAT_VERSION:
            raise ValueError(f"unsupported snapshot version "
                             f"{meta.version}")
        if list(table.schema) != meta.schema:
            raise ValueError("table schema does not match the snapshot")
        config = _config_from(meta.config)
        janus = JanusAQP(table, meta.agg_attr, meta.predicate_attrs,
                         config=config, stat_attrs=meta.stat_attrs,
                         metrics=metrics, metrics_labels=metrics_labels)
        janus.n_repartitions = int(meta.n_repartitions)

        # ---- rebuild the node graph ---------------------------------- #
        parent = archive["parent"]
        n = parent.shape[0]
        stat_attrs = tuple(meta.stat_attrs)
        mm_pos = tuple(stat_attrs.index(a) for a in meta.minmax_attrs)
        node_table = NodeTable(n, len(stat_attrs))
        for name in NodeTable.FIELDS:
            getattr(node_table, name)[:] = archive[name]
        rect_lo, rect_hi = archive["rect_lo"], archive["rect_hi"]
        nodes: List[DPTNode] = []
        for i in range(n):
            node = DPTNode(i, Rectangle(tuple(rect_lo[i]),
                                        tuple(rect_hi[i])),
                           len(stat_attrs), mm_pos, config.minmax_k,
                           node_table, i)
            for pos_str, payload in meta.minmax[i].items():
                mm = node.minmax[int(pos_str)]
                mm._max.restore(payload["max"], payload["max_exact"])
                mm._min.restore(payload["min"], payload["min_exact"])
            nodes.append(node)
        root = None
        for i, node in enumerate(nodes):
            p = int(parent[i])
            if p < 0:
                root = node
            else:
                node.parent = nodes[p]
                nodes[p].children.append(node)
        if root is None:
            raise ValueError("snapshot has no root node")

        # a tree over the root's rectangle, re-pointed at the restored graph
        dpt = DynamicPartitionTree(
            PartitionNode(root.rect), table.schema, meta.predicate_attrs,
            stat_attrs, meta.minmax_attrs, config.minmax_k)
        dpt.n0 = int(meta.n0)
        dpt._nodes, dpt._next_id, dpt.root = nodes, n, root
        dpt._index_leaves()
        janus.dpt = dpt

        # ---- restore the pooled sample ------------------------------- #
        janus.pool.restore([int(t) for t in archive["pool_tids"]
                            if int(t) in table], dpt.leaf_ids_of)

        # ---- restore sketch state from the archived blobs ------------ #
        # Construction above already re-seeded the sketches from the
        # restored table (canonical state, so the bytes agree); the
        # archived blobs are still installed verbatim so a snapshot is
        # authoritative even for archives the engine cannot re-derive.
        blobs: Dict[str, List[bytes]] = {}
        for i, attr in enumerate(config.sketch_attrs):
            j = 0
            while f"sketch{i}_{j}" in archive:
                blobs.setdefault(attr, []).append(
                    archive[f"sketch{i}_{j}"].tobytes())
                j += 1
        if blobs:
            janus.restore_sketch_blobs(blobs)
    janus._install_support_structures()
    janus.trigger.rebase(janus.dpt)
    state = janus.trigger.state     # lifetime counts survive a restart
    state.n_checks, state.n_candidates, state.n_forced = (
        int(c) for c in meta.trigger_counts)
    return janus


# ---------------------------------------------------------------------- #
# sharded fleets: per-shard archives plus a manifest
# ---------------------------------------------------------------------- #
def _restore_table(table: Table, tids: np.ndarray, rows: np.ndarray,
                   next_tid: int) -> None:
    """Rebuild a table's columnar state from ``(tid, row)`` pairs.

    Dead slots are not reproduced (they carry no information); tid
    numbering and the tid-to-slot map are exact, so reservoirs and
    synopses referencing these tids restore verbatim and future inserts
    continue from the preserved ``next_tid``.
    """
    n = int(tids.shape[0])
    cap = max(16, n)
    table._data = np.empty((cap, len(table.schema)))
    table._data[:n] = rows
    table._live = np.zeros(cap, dtype=bool)
    table._live[:n] = True
    table._tids = np.full(cap, -1, dtype=np.int64)
    table._tids[:n] = tids
    table._tid_slot = np.full(max(int(next_tid), 16), -1, dtype=np.int64)
    table._tid_slot[tids] = np.arange(n, dtype=np.int64)
    table._n_slots = n
    table._n_live = n
    table._next_tid = int(next_tid)


def save_sharded(sharded: ShardedJanusAQP,
                 dir_path: Union[str, Path]) -> None:
    """Serialize a sharded fleet into ``dir_path``.

    Layout: ``shard<i>.npz`` (one :func:`save_synopsis` archive per
    *initialized* shard) plus ``manifest.npz`` holding the coordinator
    state - placement mode (including ``route_attr``/``attr_bounds``
    for ``"attr"`` placement), ``range_block``, the global tid maps,
    the per-shard table contents (tids + rows + tid counter), the
    per-shard routing summaries and the construction template.
    Uninitialized shards (never held a row) save no archive and come
    back uninitialized.  Needs the rows in hand, so it saves an
    in-process engine, not a worker fleet.

    The in-memory snapshot is gathered under the coordinator's
    placement lock plus every shard's lock (acquired in shard order,
    the same order as the data path, so there is no cycle); compression
    and disk IO happen *after* the locks are released, so the
    fleet-wide blocking window is one array copy, not the archive
    write.  An ingest batch already past tid assignment when the locks
    are taken could still leave shard rows the tid maps do not know
    about; that inconsistency is detected and raised
    (``RuntimeError``) rather than written out as a torn snapshot -
    quiesce ingest (or retry) to save a live fleet.
    """
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        stack.enter_context(sharded._placement.lock)
        shard_of, local_tid = sharded._placement.state_arrays()
        for shard in sharded.shards:
            stack.enter_context(shard._lock)  # lock-order: canonical (shard index order, same as the data path)

        # Consistency gate: every live local tid must be reachable from
        # the global maps, or the snapshot would lose/duplicate rows.
        for s, table in enumerate(sharded.tables):
            mapped = np.sort(local_tid[shard_of == s])
            live = np.sort(table.live_tids())
            if mapped.shape != live.shape or not np.array_equal(mapped,
                                                                live):
                raise RuntimeError(
                    f"shard {s} has rows the tid maps do not cover "
                    f"(ingest in flight?); quiesce updates and retry")

        # Gather everything as fresh in-memory arrays (no disk IO yet).
        initialized = []
        payloads: Dict[int, Dict[str, object]] = {}
        for s, shard in enumerate(sharded.shards):
            if shard.dpt is None:
                initialized.append(False)
                continue
            payloads[s] = _synopsis_payload(shard)
            initialized.append(True)

        attr_bounds = sharded.attr_bounds
        meta = _ManifestMeta(
            version=_SHARDED_FORMAT_VERSION,
            schema=list(sharded.schema),
            agg_attr=sharded.agg_attr,
            predicate_attrs=list(sharded.predicate_attrs),
            stat_attrs=list(sharded.stat_attrs),
            n_shards=sharded.n_shards,
            sharding=sharded.sharding,
            range_block=sharded.range_block,
            next_tid=int(shard_of.shape[0]),
            initialized=initialized,
            table_next_tids=[t._next_tid for t in sharded.tables],
            config=_config_dict(sharded.config),
            route_attr=sharded.route_attr,
            has_attr_bounds=attr_bounds is not None)
        arrays = {
            "meta": json.dumps(dataclasses.asdict(meta)),
            "shard_of": shard_of,
            "local_tid": local_tid,
            "attr_bounds": (attr_bounds.copy() if attr_bounds is not None
                            else np.empty(0)),
        }
        for s, table in enumerate(sharded.tables):
            tids = table.live_tids()
            arrays[f"table{s}_tids"] = np.asarray(tids, dtype=np.int64)
            arrays[f"table{s}_rows"] = (
                table.rows_for(tids) if tids.size else
                np.empty((0, len(sharded.schema))))
            # Routing summaries are persisted verbatim, not rebuilt, so
            # the restored fleet prunes the exact same (query, shard)
            # pairs the saved one would have.
            for key, arr in sharded.summaries[s].state_arrays().items():
                arrays[f"summary{s}_{key}"] = arr

    # Locks released: pay for compression and file writes here.
    for s, payload in payloads.items():
        np.savez_compressed(out / f"shard{s}.npz", **payload)
    np.savez_compressed(out / _MANIFEST, **arrays)


@dataclasses.dataclass
class ShardedManifest:
    """Parsed coordinator state of a :func:`save_sharded` snapshot."""

    schema: Tuple[str, ...]
    agg_attr: str
    predicate_attrs: Tuple[str, ...]
    stat_attrs: Tuple[str, ...]
    config: JanusConfig
    route_attr: str
    #: Placement mode, bounds and the restored global tid maps.
    placement: PlacementMap
    initialized: List[bool]
    #: Per shard: the archival table's next local tid / live row count.
    table_next_tids: List[int]
    table_sizes: List[int]
    #: ``None`` for a v1 snapshot, which predates the query router.
    summaries: Optional[List[ShardSummary]]
    #: The restored archival tables of the shards that were asked for.
    tables: Dict[int, Table]


def read_sharded_manifest(dir_path: Union[str, Path],
                          tables: Optional[Sequence[int]] = ()
                          ) -> ShardedManifest:
    """Parse the manifest of a :func:`save_sharded` snapshot.

    The one manifest reader: :func:`load_sharded`, :func:`load_shard`
    and the fleet constructor (:mod:`repro.service.fleet`) all start
    here, so the coordinator state they rebuild cannot drift apart.  No
    engine is built.  ``tables`` names the shards whose archival tables
    to restore (``None`` = every shard); the default restores none,
    which is all a coordinator over worker processes needs.
    """
    src = Path(dir_path)
    manifest = src / _MANIFEST
    if not manifest.exists():
        raise FileNotFoundError(f"no {_MANIFEST} under {src}")
    with np.load(manifest, allow_pickle=False) as archive:
        meta = _ManifestMeta(**json.loads(str(archive["meta"])))
        version = int(meta.version)
        if version not in (1, _SHARDED_FORMAT_VERSION):
            raise ValueError(f"unsupported sharded snapshot version "
                             f"{meta.version}")
        n_shards = int(meta.n_shards)
        shard_of = archive["shard_of"]
        if shard_of.shape[0] != int(meta.next_tid):
            raise ValueError("manifest tid maps do not match next_tid")
        schema = tuple(meta.schema)
        predicate_attrs = tuple(meta.predicate_attrs)
        route_attr = meta.route_attr or predicate_attrs[0]
        placement = PlacementMap(
            n_shards, meta.sharding,
            range_block=int(meta.range_block),
            route_col=schema.index(route_attr),
            attr_bounds=(
                np.asarray(archive["attr_bounds"], dtype=np.float64).copy()
                if version >= 2 and meta.has_attr_bounds else None))
        placement.restore(shard_of, archive["local_tid"])
        summaries = None
        if version >= 2:
            summaries = [ShardSummary.from_state_arrays(
                {key: archive[f"summary{s}_{key}"]
                 for key in ("meta", "lo", "hi", "edges", "counts")})
                for s in range(n_shards)]
        table_next_tids = [int(t) for t in meta.table_next_tids]
        restored = {}
        for s in (range(n_shards) if tables is None else tables):
            if not (0 <= s < n_shards):
                raise ValueError(f"snapshot has {n_shards} shards, "
                                 f"no shard {s}")
            # One shard at a time, so only one table's decompressed
            # arrays are ever in flight.
            restored[s] = Table(schema)
            _restore_table(restored[s], archive[f"table{s}_tids"],
                           archive[f"table{s}_rows"], table_next_tids[s])
        return ShardedManifest(
            schema=schema,
            agg_attr=meta.agg_attr,
            predicate_attrs=predicate_attrs,
            stat_attrs=tuple(meta.stat_attrs),
            config=_config_from(meta.config),
            route_attr=route_attr,
            placement=placement,
            initialized=[bool(b) for b in meta.initialized],
            table_next_tids=table_next_tids,
            # save_sharded's consistency gate pins mapped tids == live
            # rows per shard, so the maps give the table sizes without
            # decompressing any table.
            table_sizes=np.bincount(shard_of[shard_of >= 0],
                                    minlength=n_shards).tolist(),
            summaries=summaries,
            tables=restored)


def _restore_shard(src: Path, manifest: ShardedManifest, shard_id: int,
                   metrics: Optional[MetricsRegistry] = None
                   ) -> LocalShard:
    """Rebuild one shard of a parsed manifest (its table must have been
    requested from :func:`read_sharded_manifest`).

    Over the restored archival table: the synopsis (when the shard was
    initialized) and the staggered forced-repartition offset; an
    uninitialized shard comes back as a fresh engine over its restored
    rows and initializes lazily on its first insert.  Either way the
    engine's series land on ``metrics`` labelled ``shard=<id>``.
    """
    table = manifest.tables[shard_id]
    labels = {"shard": str(shard_id)}
    if manifest.initialized[shard_id]:
        engine = load_synopsis(str(src / f"shard{shard_id}.npz"), table,
                               metrics=metrics, metrics_labels=labels)
        stagger_trigger(engine, shard_id, manifest.placement.n_shards)
    else:
        config = manifest.config
        engine = JanusAQP(
            table, manifest.agg_attr, manifest.predicate_attrs,
            config=dataclasses.replace(config,
                                       seed=config.seed + shard_id),
            stat_attrs=manifest.stat_attrs, metrics=metrics,
            metrics_labels=labels)
    return LocalShard(engine, shard_id, manifest.placement.n_shards)


def load_shard(dir_path: Union[str, Path], shard_id: int,
               metrics: Optional[MetricsRegistry] = None) -> LocalShard:
    """Warm-start one shard of a :func:`save_sharded` snapshot.

    The fleet's worker processes each restore exactly one shard without
    paying for the other N-1 shards' rows; the result is state-identical
    to slot ``shard_id`` of :func:`load_sharded` of the same snapshot
    (both go through the same restore), which the fleet's
    answer-identity gate depends on.
    """
    shard_id = int(shard_id)
    return _restore_shard(
        Path(dir_path),
        read_sharded_manifest(dir_path, tables=(shard_id,)), shard_id,
        metrics)


def load_sharded(dir_path: Union[str, Path]) -> ShardedJanusAQP:
    """Restore a fleet saved by :func:`save_sharded`.

    Rebuilds the coordinator (same placement mode, tid maps, counters
    and routing summaries - a v1 snapshot's summaries are rebuilt
    exactly from the restored rows) over one restored in-process shard
    per slot; forced-repartition counters are re-staggered so the fleet
    resumes the one-shard-at-a-time rebuild cadence.  Answers after the
    round-trip are identical to the saved fleet's
    (``tests/test_persist_sharded.py``).
    """
    src = Path(dir_path)
    m = read_sharded_manifest(src, tables=None)
    sharded = ShardedJanusAQP.__new__(ShardedJanusAQP)
    sharded._assemble(m.schema, m.agg_attr, m.predicate_attrs,
                      m.stat_attrs, m.config, m.route_attr, m.placement,
                      m.summaries,
                      lambda s: _restore_shard(src, m, s, sharded.metrics))
    if m.summaries is None:
        # v1 snapshots predate the router: rebuild each summary
        # exactly from the shard's restored live rows.
        sharded.summaries = [shard.summary() for shard in sharded._shards]
    return sharded
