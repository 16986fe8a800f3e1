"""Determinism lint passes (DET001, DET002, DET003).

The whole reproduction is a deterministic discrete-event simulation:
time comes from :class:`repro.sim.clock.VirtualClock` and randomness
from :func:`repro.sim.rng.make_rng`.  These passes flag the three ways
ambient nondeterminism usually leaks in:

* **DET001** — wall-clock reads (``time.time``, ``datetime.now``, …)
  anywhere outside ``repro.sim.clock``.
* **DET002** — ambient randomness (bare ``random.*`` module calls,
  direct ``random.Random``/``SystemRandom`` construction, ``os.urandom``,
  ``uuid.uuid1/uuid4``, anything from ``secrets``) anywhere outside
  ``repro.sim.rng``.  Derive generators from ``make_rng(seed, label)``
  instead so component streams are seeded and independent.
* **DET003** — iterating a ``set``/``frozenset`` directly in a ``for``
  statement or comprehension.  Set iteration order depends on
  ``PYTHONHASHSEED`` for str/tuple keys; feed layout or timing decisions
  from it and runs stop replaying.  Iterate ``sorted(...)`` or use an
  ordered structure.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding

#: Modules exempt per rule (the blessed homes of time and randomness).
DET001_EXEMPT = ("repro.sim.clock",)
DET002_EXEMPT = ("repro.sim.rng",)

#: Packages registered as blessed *clock consumers*: subsystems whose
#: whole job is reading timestamps (the span tracer stamps every record
#: with virtual time).  They are audited once, here, to take time only
#: from the VirtualClock — so DET001 exempts the package by prefix and
#: instrumentation never needs per-site suppressions.
DET001_CONSUMERS = (
    "repro.trace",
    "repro.cluster",
    # the telemetry sampler stamps every row with virtual-clock
    # boundaries handed to it by the serve loop
    "repro.telemetry",
)

WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

AMBIENT_RANDOM = {
    "random.Random",
    "random.SystemRandom",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.randbytes",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.seed",
    "random.getrandbits",
    "random.uniform",
    "random.gauss",
    "random.normalvariate",
    "random.expovariate",
    "random.betavariate",
    "random.triangular",
    "random.vonmisesvariate",
    "random.paretovariate",
    "random.weibullvariate",
    "random.lognormvariate",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
}


class _ImportTable:
    """Resolve names in one module back to dotted stdlib paths."""

    def __init__(self, tree: ast.AST) -> None:
        self.modules: Dict[str, str] = {}  # local alias -> module path
        self.names: Dict[str, str] = {}    # local name -> full dotted path
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self.names:
                return self.names[node.id]
            if node.id in self.modules:
                return self.modules[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


def _module_is(name: str, exempt: tuple) -> bool:
    return any(name == e for e in exempt)


def _module_in(name: str, packages: tuple) -> bool:
    """True when ``name`` is one of ``packages`` or nested inside one."""
    return any(name == p or name.startswith(p + ".") for p in packages)


def check_wall_clock(module) -> List[Finding]:
    """DET001: wall-clock reads outside repro.sim.clock."""
    if _module_is(module.name, DET001_EXEMPT) \
            or _module_in(module.name, DET001_CONSUMERS):
        return []
    table = _ImportTable(module.tree)
    out = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        path = table.resolve(node.func)
        if path in WALL_CLOCK:
            out.append(Finding(
                "DET001", module.display, node.lineno, node.col_offset,
                f"wall-clock call {path}() in a simulation path; charge "
                "time through repro.sim.clock.VirtualClock instead",
            ))
    return out


def check_ambient_random(module) -> List[Finding]:
    """DET002: ambient randomness outside repro.sim.rng."""
    if _module_is(module.name, DET002_EXEMPT):
        return []
    table = _ImportTable(module.tree)
    out = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        path = table.resolve(node.func)
        if path is None:
            continue
        if path in AMBIENT_RANDOM or path.startswith("secrets."):
            out.append(Finding(
                "DET002", module.display, node.lineno, node.col_offset,
                f"ambient randomness {path}(); derive a seeded stream "
                "with repro.sim.rng.make_rng(seed, label) instead",
            ))
    return out


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _SetIterVisitor(ast.NodeVisitor):
    """Per-scope DET003 walker (new instance per function scope)."""

    def __init__(self, module, findings: List[Finding], set_names: Set[str]):
        self.module = module
        self.findings = findings
        self.set_names = set(set_names)

    def _collect_scope(self, body: List[ast.stmt]) -> None:
        """Names bound to set expressions anywhere in this scope."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested scopes visited separately
                if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            self.set_names.add(tgt.id)
                elif isinstance(node, ast.AnnAssign) and node.value is not None \
                        and _is_set_expr(node.value):
                    if isinstance(node.target, ast.Name):
                        self.set_names.add(node.target.id)

    def run(self, body: List[ast.stmt]) -> None:
        self._collect_scope(body)
        for stmt in body:
            self.visit(stmt)

    def _flag_iter(self, it: ast.AST) -> None:
        unordered = _is_set_expr(it) or (
            isinstance(it, ast.Name) and it.id in self.set_names
        )
        if unordered:
            self.findings.append(Finding(
                "DET003", self.module.display, it.lineno, it.col_offset,
                "iteration over an unordered set; wrap in sorted() or use "
                "an ordered structure so replay order is deterministic",
            ))

    def visit_For(self, node: ast.For) -> None:
        self._flag_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, generators) -> None:
        for gen in generators:
            self._flag_iter(gen.iter)

    def visit_ListComp(self, node): self.visit_comprehension_iters(node.generators); self.generic_visit(node)
    def visit_SetComp(self, node): self.visit_comprehension_iters(node.generators); self.generic_visit(node)
    def visit_DictComp(self, node): self.visit_comprehension_iters(node.generators); self.generic_visit(node)
    def visit_GeneratorExp(self, node): self.visit_comprehension_iters(node.generators); self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        _SetIterVisitor(self.module, self.findings, self.set_names).run(node.body)

    visit_AsyncFunctionDef = visit_FunctionDef


def check_set_iteration(module) -> List[Finding]:
    """DET003: iterating an unordered set."""
    out: List[Finding] = []
    _SetIterVisitor(module, out, set()).run(module.tree.body)
    return out
