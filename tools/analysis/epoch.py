"""Epoch-discipline pass (JL101, JL102).

The serving-layer cache (``service/cache.py``) keys every entry by the
engine's ``data_epoch`` and relies on the invariant that *any* mutation
of answerable state bumps the epoch before the mutating call returns to
a client.  This pass enforces the invariant structurally over the
"epoch layer" - the modules that orchestrate mutations on behalf of an
engine object that owns an epoch counter:

* **JL101** - a function in the epoch layer calls a mutator primitive
  (``insert_rows``, ``replace_subtree``, ...) but neither bumps
  ``data_epoch`` itself, calls something that does, nor is reachable
  only from bumping callers.
* **JL102** - a function bumps ``data_epoch`` on a *foreign* object
  (``other.data_epoch += 1``).  External bumps bypass the owning
  engine's ``_lock``; route them through ``JanusAQP.bump_epoch()``.

Modules below the engine layer (``dpt.py``, ``table.py``, sampling,
index, datasets) are exempt by design: they *are* the primitives.
Epoch discipline is the calling layer's job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .core import Finding, Module, Project, attr_chain, call_name

#: Module path fragments that form the epoch layer.
EPOCH_LAYER = (
    "core/janus.py",
    "core/sharded.py",
    "core/templates.py",
    "core/repartition.py",
    "core/stream.py",
    "core/persist.py",
    "service/",
    "broker/",
)

#: Names of mutating primitives / wrappers.  Calling any of these makes
#: a function "mutating" and therefore subject to the bump requirement.
MUTATORS = {
    "insert_many", "delete_many",
    "insert_rows", "delete_rows", "add_catchup_rows",
    # the node table's grouped-update kernel and its row-range writes
    "apply_delta", "add_catchup", "rescale", "splice", "replace_subtree",
    "_install", "resample", "reroute", "rebalance_range",
}

#: Attributes whose increment counts as an epoch bump.  The synopsis
#: manager splits its epoch into ``_epoch_base + _epoch_extra``.
BUMP_ATTRS = {"data_epoch", "_epoch_base", "_epoch_extra"}

#: Method names that encapsulate a bump.
BUMP_CALLS = {"bump_epoch"}


def in_epoch_layer(path: str) -> bool:
    return any(frag in path for frag in EPOCH_LAYER)


@dataclass
class FuncFact:
    """Per-function facts feeding the safety fixpoint."""

    qualname: str
    barename: str
    module: Module
    lineno: int
    bumps: bool = False
    mutator_calls: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    external_bumps: List[Tuple[int, str]] = field(default_factory=list)


def _bump_target(node: ast.AST) -> Tuple[bool, str]:
    """(is_bump, base) for an assignment target hitting a bump attr."""
    if isinstance(node, ast.Attribute) and node.attr in BUMP_ATTRS:
        chain = attr_chain(node)
        if chain is not None:
            return True, chain[0]
        return True, "<expr>"
    return False, ""


def _collect(fact: FuncFact, body: List[ast.stmt]) -> None:
    """Collect calls/bumps from a function body, merging nested defs.

    Nested defs are merged: a closure handed to a pool (the sharded
    coordinator's per-shard ``ingest`` / ``drop`` bodies) mutates and
    bumps on behalf of its enclosing function.  The engine's rebuild
    needs no merge - every route, ``reoptimize_async``'s thread
    included, is the one method ``JanusAQP._rebuild``.
    """
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name:
                fact.calls.add(name)
                if name in MUTATORS:
                    fact.mutator_calls.add(name)
                if name in BUMP_CALLS:
                    # bump_epoch() is safe from anywhere: the engine
                    # takes its own lock inside.
                    fact.bumps = True
        elif isinstance(node, ast.AugAssign):
            is_bump, base = _bump_target(node.target)
            if is_bump:
                fact.bumps = True
                if base not in ("self", "cls"):
                    fact.external_bumps.append((node.lineno, base))
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                is_bump, base = _bump_target(tgt)
                if is_bump:
                    fact.bumps = True
                    if base not in ("self", "cls"):
                        fact.external_bumps.append((tgt.lineno, base))


def _gather_functions(project: Project) -> Dict[str, FuncFact]:
    facts: Dict[str, FuncFact] = {}
    for module in project.modules:
        if not in_epoch_layer(module.path):
            continue
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fact = FuncFact(f"{module.path}::{node.name}",
                                node.name, module, node.lineno)
                _collect(fact, node.body)
                facts[fact.qualname] = fact
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        fact = FuncFact(
                            f"{module.path}::{node.name}.{item.name}",
                            item.name, module, item.lineno)
                        _collect(fact, item.body)
                        facts[fact.qualname] = fact
    return facts


def check_epoch(project: Project) -> List[Finding]:
    facts = _gather_functions(project)
    by_barename: Dict[str, List[FuncFact]] = {}
    for fact in facts.values():
        by_barename.setdefault(fact.barename, []).append(fact)

    # Safety fixpoint.  f is epoch-safe when it bumps directly, when any
    # same-named callee in the universe is safe (a mutating wrapper like
    # JanusAQP.insert_many bumps for its callers), or when every one of
    # its in-universe callers is safe (helpers like _install that only
    # run on already-bumping paths).
    safe: Dict[str, bool] = {q: f.bumps for q, f in facts.items()}
    callers: Dict[str, List[str]] = {q: [] for q in facts}
    for q, fact in facts.items():
        for name in fact.calls:
            for callee in by_barename.get(name, ()):
                if callee.qualname != q:
                    callers[callee.qualname].append(q)

    changed = True
    while changed:
        changed = False
        for q, fact in facts.items():
            if safe[q]:
                continue
            ok = False
            for name in fact.calls:
                if any(safe[c.qualname] for c in by_barename.get(name, ())
                       if c.qualname != q):
                    ok = True
                    break
            if not ok and callers[q]:
                ok = all(safe[c] for c in callers[q])
            if ok:
                safe[q] = True
                changed = True

    findings: List[Finding] = []
    for q, fact in facts.items():
        for line, base in fact.external_bumps:
            if fact.barename == "__init__":
                continue
            findings.append(fact.module.finding(
                line, "JL102",
                f"data_epoch bumped on foreign object '{base}' in "
                f"{fact.barename}(); route through the engine-owned "
                f"bump_epoch() so the bump happens under its _lock"))
        if fact.mutator_calls and not safe[q]:
            mutators = ", ".join(sorted(fact.mutator_calls))
            findings.append(fact.module.finding(
                fact.lineno, "JL101",
                f"{fact.barename}() calls mutator(s) {mutators} but "
                f"never bumps data_epoch (directly, via a bumping "
                f"callee, or via bumping callers); stale cache hits "
                f"become possible"))
    return findings
