"""Multiple query templates over shared samples (paper Section 5.5).

A template is ``(aggregation function, aggregation attribute, predicate
attributes)``.  The paper offers two designs, both implemented here:

* **Method 1** (:class:`SynopsisManager`) - one global pooled sample plus
  one partition tree per template.  Space is O(m + L*k); every supported
  template keeps its full error guarantees.  Templates can be added
  lazily when a query from an unseen template arrives.
* **Method 2** (:class:`HeuristicRouter`) - a single tree.  A different
  aggregation *function* is free (SUM/COUNT statistics are maintained in
  every node); a different aggregation *attribute* is free too when the
  tree tracks statistics for all attributes (our default); a different
  *predicate* attribute falls back to plain uniform sampling over the
  pooled sample - higher latency and no tree guarantees, exactly the
  trade-off of Figure 8 (left) - until the caller re-partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .estimators import uniform_scan
from .janus import JanusAQP, JanusConfig
from .queries import Query, QueryResult, QueryTemplate
from .table import Table


TemplateKey = Tuple[str, Tuple[str, ...]]  # (agg attr, predicate attrs)


def template_key(query: Query) -> TemplateKey:
    return (query.attr, query.predicate_attrs)


class SynopsisManager:
    """Method 1: a tree per template over one shared table.

    The paper shares one physical sample store across the trees; here
    each template is a whole :class:`JanusAQP` with its own pool, so
    space is L independent synopses' O(L*m), not O(m + L*k).  The table
    is updated once per batch and every synopsis then applies it.
    """

    def __init__(self, table: Table, config: Optional[JanusConfig] = None
                 ) -> None:
        self.table = table
        self.config = config or JanusConfig()
        self._synopses: Dict[TemplateKey, JanusAQP] = {}
        self._epoch_extra = 0   # mutations not visible in any synopsis

    @property
    def data_epoch(self) -> int:
        """Monotone data version across all templates (result caching).

        Sum of the per-template epochs plus a local counter for
        mutations applied before any template exists; strictly increases
        on every insert/delete/re-optimization, so template-keyed cache
        entries (:mod:`repro.service.cache`) invalidate fleet-wide.
        """
        return self._epoch_extra + sum(s.data_epoch
                                       for s in self._synopses.values())

    def add_template(self, agg_attr: str,
                     predicate_attrs: Sequence[str]) -> JanusAQP:
        key = (agg_attr, tuple(predicate_attrs))
        if key in self._synopses:
            return self._synopses[key]
        synopsis = JanusAQP(self.table, agg_attr, predicate_attrs,
                            config=self.config)
        synopsis.initialize()
        self._synopses[key] = synopsis
        return synopsis

    def templates(self) -> Tuple[TemplateKey, ...]:
        return tuple(self._synopses)

    def insert(self, values: Sequence[float]) -> int:
        """Insert into the table once, updating every template's tree."""
        return self.insert_many(
            np.asarray(values, dtype=np.float64)[None, :])[0]

    def insert_many(self, rows: np.ndarray) -> list:
        """Bulk insert, fanning the batch out to every template's tree."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size == 0:
            return []   # accept (), (0,) and (0, d) empty batches
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D (n, n_attrs) array")
        synopses = list(self._synopses.values())
        if not synopses:
            self._epoch_extra += 1
            return self.table.insert_many(rows)
        tids = synopses[0].insert_many(rows)
        for s in synopses[1:]:
            s.apply_inserted(tids, rows)
        return tids

    def delete(self, tid: int) -> None:
        self.delete_many((tid,))

    def delete_many(self, tids: Sequence[int]) -> None:
        """Bulk delete, fanning the batch out to every template's tree."""
        tids = [int(t) for t in tids]
        if not tids:
            return
        synopses = list(self._synopses.values())
        if not synopses:
            self._epoch_extra += 1
            self.table.delete_many(tids)
            return
        rows = self.table.rows_for(tids)
        synopses[0].delete_many(tids)
        for s in synopses[1:]:
            s.apply_deleted(tids, rows)

    def query(self, query: Query) -> QueryResult:
        """Route to the matching template, building it on first use."""
        key = template_key(query)
        synopsis = self._synopses.get(key)
        if synopsis is None:
            synopsis = self.add_template(query.attr, query.predicate_attrs)
        return synopsis.query(query)

    def query_many(self, queries: Sequence[Query]) -> list:
        """Answer a mixed-template batch, one shared pass per template.

        Queries are grouped by template key, each group is answered
        through its synopsis's batched path (sharing the frontier
        traversal and leaf predicate evaluation within the group), and
        results come back in request order.  Unseen templates are built
        on first use, exactly like :meth:`query`.
        """
        queries = list(queries)
        if not queries:
            return []
        groups: Dict[TemplateKey, list] = {}
        for i, query in enumerate(queries):
            groups.setdefault(template_key(query), []).append(i)
        results: list = [None] * len(queries)
        for key, indices in groups.items():
            synopsis = self._synopses.get(key)
            if synopsis is None:
                synopsis = self.add_template(key[0], key[1])
            answers = synopsis.query_many([queries[i] for i in indices])
            for i, answer in zip(indices, answers):
                results[i] = answer
        return results


class HeuristicRouter:
    """Method 2: one tree answers every template it can, with fallbacks."""

    def __init__(self, synopsis: JanusAQP) -> None:
        self.synopsis = synopsis
        self._epoch_base = 0    # carried across repartition_for swaps

    @property
    def data_epoch(self) -> int:
        """Monotone data version delegated to the active tree.

        ``repartition_for`` swaps in a fresh synopsis whose own epoch
        restarts at zero; the base offset keeps the router's epoch
        strictly increasing across swaps so no stale cache entry can
        collide with a reused epoch value.
        """
        return self._epoch_base + self.synopsis.data_epoch

    @property
    def template(self) -> QueryTemplate:
        """The active tree's template: what it answers itself."""
        return self.synopsis.template

    def query(self, query: Query) -> QueryResult:
        """Answer with the tree when possible, else uniform sampling.

        The tree handles every query on its :attr:`template`.  Anything
        else - other predicate attributes, an untracked column - falls
        back to a plain uniform estimate over the pooled sample (the
        paper's option (ii)); callers wanting tree accuracy for the new
        template should trigger a re-partition.
        """
        return self.query_many((query,))[0]

    def query_many(self, queries: Sequence[Query]) -> list:
        """Batched routing: tree-capable queries share one batch pass,
        fallback queries answer individually, order is preserved."""
        queries = list(queries)
        template = self.template
        results: list = [None] * len(queries)
        tree_idx = []
        for i, query in enumerate(queries):
            if template.problem(query) is None:
                tree_idx.append(i)
            else:
                results[i] = self._uniform_fallback(query)
        if tree_idx:
            answers = self.synopsis.query_many(
                [queries[i] for i in tree_idx])
            for i, answer in zip(tree_idx, answers):
                results[i] = answer
        return results

    def _uniform_fallback(self, query: Query) -> QueryResult:
        owner = self.synopsis
        n_total = owner.dpt.n_current if owner.dpt else len(owner.table)
        result = uniform_scan(query, owner.table.schema, owner.pool.rows(),
                              float(n_total))
        result.details["fallback"] = "uniform"
        return result

    def repartition_for(self, predicate_attrs: Sequence[str]) -> JanusAQP:
        """Option (iii): rebuild the tree for a new predicate template."""
        new = JanusAQP(self.synopsis.table, self.synopsis.agg_attr,
                       predicate_attrs, config=self.synopsis.config,
                       stat_attrs=self.synopsis.stat_attrs)
        new.initialize()
        self._epoch_base += self.synopsis.data_epoch + 1
        self.synopsis = new
        return new
