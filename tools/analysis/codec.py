"""Codec-parity pass (JL401, JL402).

The broker wire format (``broker/requests.py``) and the persistence
archive (``core/persist.py``) both flatten dataclasses by hand.  A
field added to ``Query``/``QueryResult``/``QueryResponse`` that one
codec forgets silently drops data at a process boundary.  This pass
diffs the dataclass field sets against what each codec actually
touches:

* **JL401** - a dataclass field is missing from (or spurious in) a
  configured codec function.  ``FIELD_ALIASES`` maps structured fields
  to their wire keys (``rect -> lo/hi``); a ``# codec-exempt: <reason>``
  comment on the field's declaration line excludes it everywhere
  (e.g. ``QueryResult.details``, which is diagnostics-only by
  contract).
* **JL402** - the persist ``meta`` dict: keys written by the save path
  must exactly match keys read by the load path.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .core import Finding, Module, Project

#: dataclass field -> wire keys it flattens into.
FIELD_ALIASES: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("Query", "rect"): ("lo", "hi"),
}

#: (dataclass module, class, codec module, codec function, mode)
#: mode: "dict-keys"  - keys of returned/assigned dict literals
#:       "subscripts" - string subscripts payload["k"] / payload.get("k")
#:       "attr-refs:p" - attribute reads on the parameter named ``p``
#:       "ctor-kwargs" - keyword args of calls to the dataclass ctor
CODECS = [
    ("core/queries.py", "Query",
     "broker/requests.py", "query_to_dict", "dict-keys"),
    ("core/queries.py", "Query",
     "broker/requests.py", "query_from_dict", "subscripts"),
    ("core/queries.py", "QueryResult",
     "broker/requests.py", "result_to_dict", "dict-keys"),
    ("core/queries.py", "QueryResult",
     "broker/requests.py", "result_from_dict", "subscripts"),
    ("core/queries.py", "QueryResult",
     "broker/requests.py", "encode_result", "attr-refs:result"),
    ("broker/requests.py", "QueryResponse",
     "broker/requests.py", "decode_result", "ctor-kwargs"),
    ("core/queries.py", "QueryResult",
     "broker/frames.py", "encode_result_block", "attr-refs:result"),
    ("core/queries.py", "QueryResult",
     "broker/frames.py", "decode_result_block", "ctor-kwargs"),
    ("broker/frames.py", "SketchFrame",
     "broker/frames.py", "encode_sketch_block", "attr-refs:frame"),
    ("broker/frames.py", "SketchFrame",
     "broker/frames.py", "decode_sketch_block", "ctor-kwargs"),
]

#: (save module, save function, load module, load function) pairs whose
#: ``meta`` dict keys must agree.
META_PAIRS = [
    ("core/persist.py", "_synopsis_payload", "core/persist.py",
     "load_synopsis"),
    ("core/persist.py", "save_sharded", "core/persist.py",
     "read_sharded_manifest"),
]


def _find_class(module: Module, name: str) -> Optional[ast.ClassDef]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_func(module: Module, name: str) -> Optional[ast.FunctionDef]:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


def _dataclass_fields(module: Module,
                      cls: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """(fields, exempt fields) from annotated assignments."""
    fields: Set[str] = set()
    exempt: Set[str] = set()
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and \
                isinstance(item.target, ast.Name):
            name = item.target.id
            if name.startswith("_"):
                continue
            fields.add(name)
            if module.annotation(item.lineno, "codec-exempt") is not None:
                exempt.add(name)
    return fields, exempt


def _codec_keys(fn: ast.FunctionDef, mode: str, cls: str) -> Set[str]:
    keys: Set[str] = set()
    if mode == "dict-keys":
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                for k in node.keys:
                    if isinstance(k, ast.Constant) and \
                            isinstance(k.value, str):
                        keys.add(k.value)
    elif mode == "subscripts":
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript):
                s = node.slice
                if isinstance(s, ast.Constant) and isinstance(s.value, str):
                    keys.add(s.value)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "get" and node.args:
                a = node.args[0]
                if isinstance(a, ast.Constant) and isinstance(a.value, str):
                    keys.add(a.value)
    elif mode.startswith("attr-refs"):
        _, _, param = mode.partition(":")
        params = [a.arg for a in fn.args.args]
        target = param or (params[0] if params else None)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == target:
                keys.add(node.attr)
    elif mode == "ctor-kwargs":
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == cls)
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == cls)):
                for kw in node.keywords:
                    if kw.arg:
                        keys.add(kw.arg)
    return keys


def _expected_keys(cls: str, fields: Set[str], mode: str) -> Set[str]:
    if mode.startswith("attr-refs") or mode == "ctor-kwargs":
        return set(fields)
    expected: Set[str] = set()
    for f in fields:
        expected.update(FIELD_ALIASES.get((cls, f), (f,)))
    return expected


def check_codecs(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for dc_mod, cls_name, codec_mod, fn_name, mode in CODECS:
        dcm = project.module(dc_mod)
        ccm = project.module(codec_mod)
        if dcm is None or ccm is None:
            continue
        cls = _find_class(dcm, cls_name)
        fn = _find_func(ccm, fn_name)
        if cls is None or fn is None:
            continue
        fields, exempt = _dataclass_fields(dcm, cls)
        expected = _expected_keys(cls_name, fields - exempt, mode)
        actual = _codec_keys(fn, mode, cls_name)
        for missing in sorted(expected - actual):
            findings.append(ccm.finding(
                fn, "JL401",
                f"{cls_name} field '{missing}' is not handled by "
                f"{fn_name}(); the codec silently drops it at the "
                f"process boundary"))
        if mode in ("dict-keys", "ctor-kwargs"):
            for spurious in sorted(actual - expected):
                findings.append(ccm.finding(
                    fn, "JL401",
                    f"{fn_name}() emits key '{spurious}' that is not "
                    f"a (non-exempt) {cls_name} field"))
    findings.extend(_check_meta_pairs(project))
    return findings


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


def _check_meta_pairs(project: Project) -> List[Finding]:
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
