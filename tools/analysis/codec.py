"""Codec-parity pass (JL402).

The persistence archive (``core/persist.py``) flattens engine state
into a ``meta`` dict by hand: a key the save path writes and the load
path never reads (or the reverse) silently drops state on restore.

* **JL402** - the persist ``meta`` dict: keys written by the save path
  must exactly match keys read by the load path.

The ``Query`` / ``QueryResult`` wire codecs need no such check: they
are loops over the schema the dataclasses declare
(``repro.core.queries.wire``), so there is no second field list to
drift.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .core import Finding, Module, Project

#: (save module, save function, load module, load function) pairs whose
#: ``meta`` dict keys must agree.
META_PAIRS = [
    ("core/persist.py", "_synopsis_payload", "core/persist.py",
     "load_synopsis"),
    ("core/persist.py", "save_sharded", "core/persist.py",
     "read_sharded_manifest"),
]


def _find_func(module: Module, name: str) -> Optional[ast.FunctionDef]:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


def _meta_written(fn: ast.FunctionDef) -> Set[str]:
    """Keys of dict literals assigned to a name containing 'meta' and
    of ``meta["k"] = ...`` stores."""
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name) and "meta" in tgt.id and \
                        isinstance(node.value, ast.Dict):
                    for k in node.value.keys:
                        if isinstance(k, ast.Constant) and \
                                isinstance(k.value, str):
                            keys.add(k.value)
                elif isinstance(tgt, ast.Subscript) and \
                        isinstance(tgt.value, ast.Name) and \
                        "meta" in tgt.value.id:
                    s = tgt.slice
                    if isinstance(s, ast.Constant) and \
                            isinstance(s.value, str):
                        keys.add(s.value)
    return keys


def _meta_read(fn: ast.FunctionDef) -> Set[str]:
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Name) and \
                "meta" in node.value.id:
            s = node.slice
            if isinstance(s, ast.Constant) and isinstance(s.value, str):
                keys.add(s.value)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get" and \
                isinstance(node.func.value, ast.Name) and \
                "meta" in node.func.value.id and node.args:
            a = node.args[0]
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                keys.add(a.value)
    return keys


def check_codecs(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for save_mod, save_fn, load_mod, load_fn in META_PAIRS:
        sm = project.module(save_mod)
        lm = project.module(load_mod)
        if sm is None or lm is None:
            continue
        sfn = _find_func(sm, save_fn)
        lfn = _find_func(lm, load_fn)
        if sfn is None or lfn is None:
            continue
        written = _meta_written(sfn)
        read = _meta_read(lfn)
        if not written or not read:
            continue
        for key in sorted(written - read):
            findings.append(lm.finding(
                lfn, "JL402",
                f"meta key '{key}' written by {save_fn}() is never "
                f"read by {load_fn}(); archived state is dropped on "
                f"restore"))
        for key in sorted(read - written):
            findings.append(lm.finding(
                lfn, "JL402",
                f"meta key '{key}' read by {load_fn}() is never "
                f"written by {save_fn}(); restore will KeyError or "
                f"silently default"))
    return findings
