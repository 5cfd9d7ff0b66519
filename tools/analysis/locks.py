"""Lock-discipline pass (JL201-JL205).

Annotation syntax (trailing comments, collected via ``tokenize``):

* ``self.attr = ...  # guarded-by: _lock`` - registers ``attr`` (on the
  enclosing class) as guarded: every ``self.attr`` access in a method
  of that class must be lexically inside ``with self._lock:`` (or an
  ``ExitStack.enter_context(self._lock)`` earlier in the function).
* ``def helper(self):  # requires-lock: _lock`` - the method asserts
  its callers hold the lock; its body is checked as if the lock were
  held, and every ``self.helper()`` call site must hold it (JL204).
* ``...  # lock-free-read: <reason>`` - waives JL201 on that line for
  deliberately unlocked reads (e.g. the router's one-sided summary
  probes); the reason is mandatory documentation.
* ``...  # lock-order: canonical (<reason>)`` - waives JL205 where
  several lock instances of the same class are taken in a documented
  canonical order (e.g. shard-index order in ``core/persist.py``).

Checks:

* **JL201** - guarded attribute accessed without its lock.
* **JL202** - bare ``.acquire()`` not immediately followed by
  ``try/finally: release()``; use ``with``.
* **JL203** - cycle in the cross-module lock-ordering graph.  Nodes are
  ``Class.lockattr``; edges come from lexical ``with`` nesting plus
  interprocedural call resolution (``self``, annotated parameters, and
  small tables of attribute / container element types that follow the
  sharded coordinator through its shard seam:
  ``ShardedJanusAQP._placement -> PlacementMap``,
  ``ShardedJanusAQP._shards[] -> LocalShard``,
  ``LocalShard.engine -> JanusAQP``).  A call made on the *same
  receiver* a held lock was taken from (``with shard.lock:
  shard.insert(...)``, ``self`` included) may re-acquire that lock: it
  is the same reentrant instance, not a second one.
* **JL204** - ``requires-lock`` method called without the lock held.
* **JL205** - several instances of one lock class acquired together
  (lexical nesting on the same node, or acquisition inside a loop)
  without a ``lock-order: canonical`` waiver.

Nested function definitions are analyzed with an *empty* held set: a
closure handed to an executor runs on another thread later, so locks
held at definition time prove nothing at run time.  Locks held where
the closure is *passed to a call* are another matter - the callee may
run it inline on this very thread (``ShardedJanusAQP._fan_out`` does,
over in-process shards) - so each lock the closure takes lexically gets
an ordering edge from every lock held at that call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import Finding, Module, Project

#: (Class, container attribute) -> element class, for receiver-type
#: resolution of calls like ``self.shards[s].delete_many(...)``.
ELEM_TYPES = {
    ("ShardedJanusAQP", "_shards"): "LocalShard",
    ("FleetCoordinator", "_shards"): "RemoteShard",
    ("ShardedJanusAQP", "shards"): "JanusAQP",
    ("ShardedJanusAQP", "summaries"): "ShardSummary",
    ("ShardedJanusAQP", "tables"): "Table",
}

#: (Class, attribute) -> class, for scalar attributes.
ATTR_TYPES: Dict[Tuple[str, str], str] = {
    ("ShardedJanusAQP", "_placement"): "PlacementMap",
    ("LocalShard", "engine"): "JanusAQP",
}


def _is_lockish(attr: str) -> bool:
    return attr.endswith("lock")


@dataclass
class ClassInfo:
    name: str
    module: Module
    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    guarded: Dict[str, str] = field(default_factory=dict)   # attr -> lock
    requires: Dict[str, str] = field(default_factory=dict)  # method -> lock


@dataclass
class _Graph:
    """Lock-ordering digraph with representative edge sites."""

    edges: Dict[Tuple[str, str], Tuple[str, int]] = field(
        default_factory=dict)
    self_edges: Dict[Tuple[str, int], str] = field(default_factory=dict)

    def add(self, held: str, acquired: str, path: str, line: int) -> None:
        if held == acquired:
            self.self_edges.setdefault((path, line), held)
        else:
            self.edges.setdefault((held, acquired), (path, line))

    def cycles(self) -> List[List[str]]:
        adj: Dict[str, Set[str]] = {}
        for (a, b) in self.edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set())
        found: List[List[str]] = []
        seen: Set[Tuple[str, ...]] = set()

        def dfs(start: str) -> None:
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(adj.get(node, ())):
                    if nxt == start:
                        key = tuple(sorted(path))
                        if key not in seen:
                            seen.add(key)
                            found.append(path + [start])
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + [nxt]))

        for node in sorted(adj):
            dfs(node)
        return found


def _collect_classes(project: Project) -> Dict[str, ClassInfo]:
    classes: Dict[str, ClassInfo] = {}
    for module in project.modules:
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            info = ClassInfo(node.name, module, node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[item.name] = item
                    lock = module.annotation(item.lineno, "requires-lock")
                    if lock:
                        info.requires[item.name] = lock
            # guarded-by annotations sit on self.attr assignment lines
            # anywhere in the class body (conventionally __init__).
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    targets = (sub.targets
                               if isinstance(sub, ast.Assign)
                               else [sub.target])
                    lock = module.annotation(sub.lineno, "guarded-by")
                    if not lock:
                        continue
                    for tgt in targets:
                        if (isinstance(tgt, ast.Attribute)
                                and isinstance(tgt.value, ast.Name)
                                and tgt.value.id == "self"):
                            info.guarded[tgt.attr] = lock
            classes[info.name] = info
    return classes


# --------------------------------------------------------------------------
# Receiver-type resolution (best effort; unresolved receivers are
# simply skipped, keeping the ordering graph precise over complete).

class _Env:
    def __init__(self, classname: Optional[str],
                 fn: ast.FunctionDef) -> None:
        self.types: Dict[str, str] = {}
        if classname:
            self.types["self"] = classname
        for arg in list(fn.args.posonlyargs) + list(fn.args.args) + \
                list(fn.args.kwonlyargs):
            ann = arg.annotation
            if isinstance(ann, ast.Name):
                self.types[arg.arg] = ann.id
            elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                self.types[arg.arg] = ann.value.split(".")[-1]

    def resolve(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is not None:
                return ATTR_TYPES.get((base, node.attr))
            return None
        if isinstance(node, ast.Subscript):
            inner = node.value
            if isinstance(inner, ast.Attribute):
                base = self.resolve(inner.value)
                if base is not None:
                    return ELEM_TYPES.get((base, inner.attr))
        return None

    def learn(self, stmt: ast.stmt) -> None:
        """Pick up simple local bindings that reveal receiver types."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            t = self.resolve(stmt.value)
            if t is not None:
                self.types[stmt.targets[0].id] = t
        elif isinstance(stmt, (ast.For, ast.AsyncFor)) \
                and isinstance(stmt.target, ast.Name) \
                and isinstance(stmt.iter, ast.Attribute):
            base = self.resolve(stmt.iter.value)
            if base is not None:
                elem = ELEM_TYPES.get((base, stmt.iter.attr))
                if elem is not None:
                    self.types[stmt.target.id] = elem


def _lock_node(env: _Env, expr: ast.AST) -> Tuple[Optional[str],
                                                  Optional[str]]:
    """(graph node "Class.attr", local attr name for self receivers)."""
    if isinstance(expr, ast.Attribute) and _is_lockish(expr.attr):
        local = None
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            local = expr.attr
        base = env.resolve(expr.value)
        node = f"{base}.{expr.attr}" if base else None
        return node, local
    return None, None


# --------------------------------------------------------------------------
# Function body walker: tracks held locks, reports access violations,
# collects ordering edges and may-acquire facts.

@dataclass
class _FnFacts:
    lexical: Set[str] = field(default_factory=set)   # graph nodes
    calls: List[Tuple[str, int]] = field(default_factory=list)
    # (callee key, line, held nodes, held nodes taken from the call's
    # own receiver)
    held_calls: List[Tuple[str, int, Tuple[str, ...],
                           Tuple[str, ...]]] = field(default_factory=list)


class _Walker:
    def __init__(self, classes: Dict[str, ClassInfo], module: Module,
                 classinfo: Optional[ClassInfo], fn: ast.FunctionDef,
                 graph: _Graph, findings: List[Finding],
                 module_funcs: Dict[str, str]) -> None:
        self.classes = classes
        self.module = module
        self.ci = classinfo
        self.fn = fn
        self.graph = graph
        self.findings = findings
        self.module_funcs = module_funcs
        self.env = _Env(classinfo.name if classinfo else None, fn)
        self.facts = _FnFacts()
        self.held_local: List[str] = []   # attr names on self
        self.held_nodes: List[str] = []   # graph nodes "Class.attr"
        self.held_recv: List[str] = []    # source text of the lock owner
        self.loop_depth = 0
        #: nested def name -> lock nodes its body acquires lexically
        self.closures: Dict[str, Set[str]] = {}

    def run(self) -> _FnFacts:
        if self.ci is not None:
            lock = self.ci.requires.get(self.fn.name)
            if lock:
                self.held_local.append(lock)
                self.held_nodes.append(f"{self.ci.name}.{lock}")
                self.held_recv.append("self")
        self.visit_body(self.fn.body)
        return self.facts

    # -- statement walking ------------------------------------------------

    def visit_body(self, body: Sequence[ast.stmt]) -> None:
        for i, stmt in enumerate(body):
            self.env.learn(stmt)
            self.visit_stmt(stmt, body, i)

    def visit_stmt(self, stmt: ast.stmt, body: Sequence[ast.stmt],
                   index: int) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later (worker threads, closures): they do
            # not inherit the lexically held locks.
            sub = _Walker(self.classes, self.module, self.ci, stmt,
                          self.graph, self.findings, self.module_funcs)
            facts = sub.run()
            self.closures[stmt.name] = set(facts.lexical)
            self.facts.lexical |= facts.lexical
            self.facts.calls.extend(facts.calls)
            self.facts.held_calls.extend(facts.held_calls)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.visit_with(stmt)
            return
        if isinstance(stmt, ast.Expr):
            self.check_acquire(stmt, body, index)
        # ExitStack-style acquisitions anywhere in the statement hold
        # for the rest of the function (the stack unwinds on exit).
        for call in self._enter_context_calls(stmt):
            node, local = self._acquisition(call)
            if node is not None or local is not None:
                self._acquire(node, local, call.args[0], call.lineno)
        self.scan_exprs(stmt)
        in_loop = isinstance(stmt, (ast.For, ast.AsyncFor, ast.While))
        if in_loop:
            self.loop_depth += 1
        for child_body in self.child_bodies(stmt):
            self.visit_body(child_body)
        if in_loop:
            self.loop_depth -= 1

    @staticmethod
    def child_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
        bodies = []
        for name in ("body", "orelse", "finalbody"):
            b = getattr(stmt, name, None)
            if b:
                bodies.append(b)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    @staticmethod
    def _enter_context_calls(stmt: ast.stmt) -> List[ast.Call]:
        calls = []
        for fieldname, value in ast.iter_fields(stmt):
            if fieldname in ("body", "orelse", "finalbody", "handlers"):
                continue
            roots = [value] if isinstance(value, ast.AST) else (
                [v for v in value if isinstance(v, ast.AST)]
                if isinstance(value, list) else [])
            for root in roots:
                for node in ast.walk(root):
                    if isinstance(node, ast.Call) and \
                            isinstance(node.func, ast.Attribute) and \
                            node.func.attr == "enter_context" and node.args:
                        calls.append(node)
        return calls

    def visit_with(self, stmt: ast.With) -> None:
        pushed = 0
        for item in stmt.items:
            node, local = self._acquisition(item.context_expr)
            if node is None and local is None:
                continue
            expr = item.context_expr
            if isinstance(expr, ast.Call):      # enter_context(lock)
                expr = expr.args[0]
            self._acquire(node, local, expr, expr.lineno)
            pushed += 1
        self.visit_body(stmt.body)
        for _ in range(pushed):
            self._release()

    def _acquisition(self, expr: ast.AST) -> Tuple[Optional[str],
                                                   Optional[str]]:
        if isinstance(expr, ast.Call) and \
                isinstance(expr.func, ast.Attribute) and \
                expr.func.attr == "enter_context" and expr.args:
            return _lock_node(self.env, expr.args[0])
        return _lock_node(self.env, expr)

    def _acquire(self, node: Optional[str], local: Optional[str],
                 lock_expr: ast.AST, line: int) -> None:
        self.held_recv.append(ast.unparse(lock_expr.value))
        if node is not None:
            waived = "lock-order: canonical" in self.module.comment(line)
            for held in self.held_nodes:
                if held == node and waived:
                    continue
                self.graph.add(held, node, self.module.path, line)
            if self.loop_depth > 0 and local is None and not waived:
                # Non-self receiver acquired in a loop: one allocation
                # site, many instances (e.g. per-shard locks) - that
                # needs a documented canonical order.  ``self.L`` in a
                # loop is the same instance every iteration and safe.
                self.graph.add(node, node, self.module.path, line)
            self.facts.lexical.add(node)
            self.held_nodes.append(node)
            self.held_local.append(local if local is not None else "")
        elif local is not None:
            self.held_nodes.append("")
            self.held_local.append(local)

    def _release(self) -> None:
        if self.held_nodes:
            self.held_nodes.pop()
        if self.held_local:
            self.held_local.pop()
        if self.held_recv:
            self.held_recv.pop()

    # -- expression-level checks -----------------------------------------

    def scan_exprs(self, stmt: ast.stmt) -> None:
        """Check attribute accesses and calls in the statement's own
        expressions (not its nested statement bodies)."""
        for fieldname, value in ast.iter_fields(stmt):
            if fieldname in ("body", "orelse", "finalbody", "handlers"):
                continue
            roots = [value] if isinstance(value, ast.AST) else (
                [v for v in value if isinstance(v, ast.AST)]
                if isinstance(value, list) else [])
            for root in roots:
                for node in ast.walk(root):
                    if isinstance(node, ast.Attribute):
                        self.check_access(node)
                    elif isinstance(node, ast.Call):
                        self.check_call(node)

    def check_access(self, node: ast.Attribute) -> None:
        if self.ci is None or self.fn.name == "__init__":
            return
        if not (isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return
        guard = self.ci.guarded.get(node.attr)
        if guard is None or guard in self.held_local:
            return
        if self.module.annotation(node.lineno, "lock-free-read") is not None:
            return
        self.findings.append(self.module.finding(
            node, "JL201",
            f"{self.ci.name}.{node.attr} is guarded-by {guard} but "
            f"accessed in {self.fn.name}() without holding it"))

    def check_call(self, node: ast.Call) -> None:
        # A closure passed along may run inline, under what is held now.
        for arg in node.args:
            if isinstance(arg, ast.Name):
                for inner in self.closures.get(arg.id, ()):
                    for held in self.held_nodes:
                        if held:
                            self.graph.add(held, inner, self.module.path,
                                           node.lineno)
        fn = node.func
        callee_key: Optional[str] = None
        if isinstance(fn, ast.Attribute):
            base = self.env.resolve(fn.value)
            if base is not None and base in self.classes and \
                    fn.attr in self.classes[base].methods:
                callee_key = f"{base}.{fn.attr}"
            if isinstance(fn.value, ast.Name) and fn.value.id == "self" \
                    and self.ci is not None:
                req = self.ci.requires.get(fn.attr)
                if req is not None and req not in self.held_local:
                    self.findings.append(self.module.finding(
                        node, "JL204",
                        f"{self.ci.name}.{fn.attr}() requires-lock "
                        f"{req} but is called from {self.fn.name}() "
                        f"without holding it"))
        elif isinstance(fn, ast.Name):
            callee_key = self.module_funcs.get(fn.id)
        if callee_key is not None:
            self.facts.calls.append((callee_key, node.lineno))
            held = tuple(h for h in self.held_nodes if h)
            if held:
                recv = (ast.unparse(fn.value)
                        if isinstance(fn, ast.Attribute) else None)
                same = tuple(h for h, r in zip(self.held_nodes,
                                               self.held_recv)
                             if h and r == recv)
                self.facts.held_calls.append(
                    (callee_key, node.lineno, held, same))

    def check_acquire(self, stmt: ast.Expr, body: Sequence[ast.stmt],
                      index: int) -> None:
        call = stmt.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "acquire"):
            return
        nxt = body[index + 1] if index + 1 < len(body) else None
        if isinstance(nxt, ast.Try) and nxt.finalbody:
            for sub in ast.walk(ast.Module(body=list(nxt.finalbody),
                                           type_ignores=[])):
                if isinstance(sub, ast.Call) and \
                        isinstance(sub.func, ast.Attribute) and \
                        sub.func.attr == "release":
                    return
        self.findings.append(self.module.finding(
            call, "JL202",
            "lock.acquire() without an immediate try/finally release; "
            "use a 'with' block"))


# --------------------------------------------------------------------------

def _analyze(project: Project) -> Tuple[List[Finding], _Graph]:
    classes = _collect_classes(project)
    findings: List[Finding] = []
    graph = _Graph()
    fn_facts: Dict[str, _FnFacts] = {}
    fn_module: Dict[str, str] = {}

    for module in project.modules:
        module_funcs = {
            n.name: f"{module.path}::{n.name}"
            for n in module.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                ci = classes[node.name]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        w = _Walker(classes, module, ci, item, graph,
                                    findings, module_funcs)
                        key = f"{ci.name}.{item.name}"
                        fn_facts[key] = w.run()
                        fn_module[key] = module.path
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                w = _Walker(classes, module, None, node, graph,
                            findings, module_funcs)
                key = f"{module.path}::{node.name}"
                fn_facts[key] = w.run()
                fn_module[key] = module.path

    # may-acquire fixpoint over resolved calls.
    may: Dict[str, Set[str]] = {k: set(f.lexical)
                                for k, f in fn_facts.items()}
    changed = True
    while changed:
        changed = False
        for key, facts in fn_facts.items():
            for callee, _line in facts.calls:
                extra = may.get(callee, set()) - may[key]
                if extra:
                    may[key] |= extra
                    changed = True

    # Interprocedural edges: locks held at a call site order before
    # everything the callee may acquire.
    for key, facts in fn_facts.items():
        for callee, line, held, same in facts.held_calls:
            for acquired in sorted(may.get(callee, ())):
                # x.method() re-acquiring the (reentrant) lock that was
                # taken from x itself is the same instance, already
                # held: it cannot block, so it orders after nothing.
                if acquired in same:
                    continue
                for h in held:
                    graph.add(h, acquired, fn_module[key], line)

    return findings, graph


def check_locks(project: Project) -> List[Finding]:
    findings, graph = _analyze(project)
    for cyc in graph.cycles():
        site = graph.edges.get((cyc[0], cyc[1]), ("?", 0))
        findings.append(Finding(
            site[0], site[1], "JL203",
            "lock-ordering cycle: " + " -> ".join(cyc)))
    for (path, line), node in sorted(graph.self_edges.items()):
        findings.append(Finding(
            path, line, "JL205",
            f"multiple {node} instances held together without a "
            f"'# lock-order: canonical' waiver documenting the "
            f"acquisition order"))
    return findings


def lock_order_edges(project: Project) -> Dict[Tuple[str, str],
                                               Tuple[str, int]]:
    """The discovered ordering edges (exposed for docs/tests)."""
    return _analyze(project)[1].edges
