"""Kahn-semantics AST lint over process bodies.

The paper's determinacy theorem (section 2) holds only when every
process is a *sequential, functional* program whose sole interaction
with the rest of the network is blocking channel reads and writes.  The
runtime cannot enforce that ("the responsibility for consistency
checking could be given to [a] front end", section 3) — so this module
is the front end for the *inside* of a process: it walks the AST of
every ``Process`` subclass and flags the constructs that break Kahn
semantics in Python.

Rules
-----
``poll``
    Non-blocking channel inspection: ``occupancy()`` / ``available()`` /
    ``buffered()`` / ``held()`` / ``poll_ready()`` / ``at_eof()`` /
    ``would_block_on()`` / ``wait_any_readable(...)`` or a
    ``read(..., timeout=...)``.  Testing an input for data is exactly
    the operation Kahn forbids — the result depends on scheduling, not
    on the streams.
``time``
    Wall-clock reads (``time.time()``, ``time.monotonic()``,
    ``datetime.now()``, ...).  ``time.sleep`` is allowed: throttling
    changes *when* tokens move, never *which* tokens.
``random``
    Unseeded randomness (``random.random()``, ``random.Random()`` with
    no seed, ``numpy.random`` without ``default_rng(seed)``).  A class
    that seeds explicitly anywhere (``random.seed(x)``,
    ``random.Random(x)``, ``default_rng(x)``) is exempt: its draws are a
    deterministic function of the seed.
``select``
    Data-dependent *input* selection: reading from a stream chosen by
    subscripting a stream collection with a value derived from channel
    data in the same function.  This is the shape of a home-grown
    nondeterministic merge.
``global-write``
    Mutation of module-level state from inside a process body (a
    ``global`` rebind, an item store into ``os.environ``, or a mutating method
    call / subscript store whose target is a module-level name).  Shared
    state between thread-backed processes is a race, not a stream.
``io``
    Non-channel blocking I/O side effects inside a process body:
    ``open()``, ``socket.*``, ``subprocess.*``, ``input()``,
    ``urllib``/``requests`` calls.  External I/O makes the process's
    output depend on the outside world, not its input streams.

Suppressions: append ``# repro: lint-ok[rule]`` (or a bare
``# repro: lint-ok``) to the offending line.  Whole components opt out
with ``@nondeterminate("reason")`` (see :mod:`repro.analysis.markers`):
their findings are still reported, at severity ``declared``.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.markers import declared_nondeterminate

__all__ = ["lint_source", "lint_file", "lint_paths", "lint_class",
           "lint_callable", "RULES"]

#: rule code -> one-line description (documented in docs/analysis.md)
RULES: Dict[str, str] = {
    "poll": "non-blocking channel inspection (data-availability test)",
    "time": "wall-clock dependence inside a process body",
    "random": "unseeded randomness inside a process body",
    "select": "data-dependent input-channel selection (ad-hoc merge)",
    "global-write": "mutation of module-level state from a process body",
    "io": "non-channel I/O side effect inside a process body",
}

#: base-class names that make a ClassDef a process for linting purposes
_PROCESS_BASES = {"Process", "IterativeProcess", "CompositeProcess"}

#: attribute calls that test a channel for data instead of blocking on it
_POLL_ATTRS = {"occupancy", "poll_ready", "wait_any_readable",
               "would_block_on"}
#: poll attrs that double as ordinary names elsewhere; only flagged on
#: likely stream receivers (see _looks_like_stream)
_POLL_ATTRS_STREAMY = {"available", "at_eof", "buffered", "held"}

_TIME_FUNCS = {"time", "monotonic", "perf_counter", "time_ns",
               "monotonic_ns", "perf_counter_ns", "process_time",
               "process_time_ns", "thread_time", "clock"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}

_RANDOM_FUNCS = {"random", "randint", "randrange", "uniform", "choice",
                 "choices", "shuffle", "sample", "gauss", "normalvariate",
                 "betavariate", "expovariate", "getrandbits", "randbytes",
                 "rand", "randn", "standard_normal"}

_IO_ROOTS = {"socket", "subprocess", "requests", "urllib", "http"}

_MUTATING_METHODS = {"append", "add", "extend", "update", "insert", "pop",
                     "popleft", "remove", "clear", "setdefault",
                     "appendleft", "discard", "write", "writelines",
                     "__setitem__", "sort", "reverse"}

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok(?:\[([a-z-]+(?:,\s*[a-z-]+)*)\])?")


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an attribute/subscript/call chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _looks_like_stream(node: ast.AST) -> bool:
    """Heuristic: is this receiver plausibly a channel stream?

    Keeps ``available``/``at_eof`` findings to receivers that mention
    stream-ish attribute names or self state, avoiding collisions with
    unrelated APIs of the same name.
    """
    chain = _attr_chain(node)
    if not chain:
        return True  # locals assigned from reads etc. — assume stream
    streamy = {"self", "source", "sources", "inputs", "input", "stream",
               "streams", "in_", "left", "right", "data", "control",
               "tasks", "index", "pairs_in", "head", "tail"}
    return bool(set(chain) & streamy) or chain[0] == "self"


class _ModuleContext:
    """What the per-class visitor needs to know about the module."""

    def __init__(self, tree: ast.Module, source: str,
                 filename: str) -> None:
        self.filename = filename
        self.source_lines = source.splitlines()
        #: names bound at module level by assignment (shared-state roots)
        self.module_assigned: Set[str] = set()
        #: names bound at module level by class definitions
        self.module_classes: Set[str] = set()
        #: names imported from repro process modules (potential bases)
        self.imported_process_names: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Name):
                        self.module_assigned.add(t.id)
            elif isinstance(node, ast.ClassDef):
                self.module_classes.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith(("repro.processes",
                                           "repro.kpn.process",
                                           "repro.parallel")):
                    for alias in node.names:
                        self.imported_process_names.add(
                            alias.asname or alias.name)

    def suppressed(self, line: int, rule: str) -> bool:
        if not 1 <= line <= len(self.source_lines):
            return False
        m = _SUPPRESS_RE.search(self.source_lines[line - 1])
        if m is None:
            return False
        rules = m.group(1)
        if rules is None:
            return True
        return rule in {r.strip() for r in rules.split(",")}


def _process_classes(tree: ast.Module,
                     ctx: _ModuleContext) -> List[ast.ClassDef]:
    """ClassDefs that are (transitively) process subclasses.

    A class qualifies when a base name is a known process base, a name
    imported from a repro process module, or another qualifying class in
    the same file.
    """
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    known: Set[str] = set(_PROCESS_BASES) | ctx.imported_process_names
    qualified: Dict[str, bool] = {}
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if qualified.get(cls.name):
                continue
            base_names = {b.id if isinstance(b, ast.Name) else b.attr
                          for b in cls.bases
                          if isinstance(b, (ast.Name, ast.Attribute))}
            if base_names & known or any(qualified.get(b)
                                         for b in base_names):
                qualified[cls.name] = True
                known.add(cls.name)
                changed = True
    return [c for c in classes if qualified.get(c.name)]


def _class_nondeterminate(cls: ast.ClassDef) -> Optional[str]:
    """The reason string of an AST-level ``@nondeterminate`` decorator."""
    for dec in cls.decorator_list:
        if isinstance(dec, ast.Call):
            name = (dec.func.id if isinstance(dec.func, ast.Name)
                    else dec.func.attr if isinstance(dec.func, ast.Attribute)
                    else None)
            if name == "nondeterminate":
                if dec.args and isinstance(dec.args[0], ast.Constant):
                    return str(dec.args[0].value)
                return "declared"
    return None


class _FunctionLinter(ast.NodeVisitor):
    """Lints one function body; collects raw (rule, line, message)."""

    def __init__(self, ctx: _ModuleContext) -> None:
        self.ctx = ctx
        self.raw: List[Tuple[str, int, str]] = []
        #: local names whose value derives from channel data
        self.tainted: Set[str] = set()
        #: True once the function seeds a PRNG explicitly
        self.seeds_explicitly = False

    # -- helpers -----------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.raw.append((rule, getattr(node, "lineno", 0), message))

    def _is_read_call(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("read", "read_exactly"))

    def _expr_tainted(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if self._is_read_call(sub):
                return True
            if isinstance(sub, ast.Name) and sub.id in self.tainted:
                return True
        return False

    def _tainted_subscript(self, node: ast.AST) -> bool:
        """Does the expression subscript anything with tainted data?"""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript) and self._expr_tainted(sub.slice):
                return True
        return False

    # -- statement visitors ------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if self._expr_tainted(node.value) or self._tainted_subscript(node.value):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self.tainted.add(t.id)
                elif isinstance(t, (ast.Tuple, ast.List)):
                    for el in t.elts:
                        if isinstance(el, ast.Name):
                            self.tainted.add(el.id)

    def visit_Global(self, node: ast.Global) -> None:
        self._flag("global-write", node,
                   "process body rebinds module-level name(s) "
                   f"{', '.join(repr(n) for n in node.names)} via `global`")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # store to a module-level container: RESULTS[k] = v
        if isinstance(node.ctx, ast.Store):
            root = _root_name(node.value)
            chain = _attr_chain(node.value)
            if chain[:2] == ["os", "environ"]:
                self._flag("global-write", node,
                           "process body mutates os.environ")
            elif (root is not None and root != "self"
                    and root in self.ctx.module_assigned):
                self._flag("global-write", node,
                           f"process body stores into module-level "
                           f"object {root!r}")
        self.generic_visit(node)

    # -- call analysis -----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        # plain-name calls -------------------------------------------------
        if isinstance(func, ast.Name):
            if func.id == "wait_any_readable":
                self._flag("poll", node,
                           "wait_any_readable() tests inputs for data; "
                           "a Kahn process must commit to one blocking read")
            elif func.id == "open":
                self._flag("io", node,
                           "open() inside a process body: file contents/"
                           "effects are not part of the input streams")
            elif func.id == "input":
                self._flag("io", node, "input() inside a process body")
            elif func.id in ("Random", "default_rng"):
                if node.args or node.keywords:
                    self.seeds_explicitly = True
                else:
                    self._flag("random", node,
                               f"{func.id}() constructed without a seed")
            return
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        chain = _attr_chain(func)
        root = chain[0] if chain else None
        # polling ----------------------------------------------------------
        if attr in _POLL_ATTRS:
            self._flag("poll", node,
                       f"{attr}() inspects channel state without blocking")
        elif attr in _POLL_ATTRS_STREAMY and not node.args \
                and _looks_like_stream(func.value):
            self._flag("poll", node,
                       f"{attr}() tests an input for data instead of "
                       "committing to a blocking read")
        elif attr == "read" and any(k.arg == "timeout" for k in node.keywords):
            self._flag("poll", node,
                       "read(timeout=...) is a poll: the outcome depends "
                       "on scheduling, not on the stream")
        # wall clock -------------------------------------------------------
        elif root == "time" and attr in _TIME_FUNCS:
            self._flag("time", node,
                       f"time.{attr}() makes output depend on the wall "
                       "clock, not the input streams")
        elif attr in _DATETIME_FUNCS and root in ("datetime", "date"):
            self._flag("time", node, f"{'.'.join(chain)}() reads the clock")
        # randomness -------------------------------------------------------
        elif attr == "seed":
            self.seeds_explicitly = True
        elif attr in ("Random", "default_rng"):
            if node.args or node.keywords:
                self.seeds_explicitly = True
            else:
                self._flag("random", node,
                           f"{attr}() constructed without a seed")
        elif attr in _RANDOM_FUNCS and root in ("random", "np", "numpy") \
                or (len(chain) >= 2 and chain[-2] == "random"
                    and attr in _RANDOM_FUNCS):
            self._flag("random", node,
                       f"{'.'.join(chain)}() draws unseeded randomness")
        # I/O side effects -------------------------------------------------
        elif root in _IO_ROOTS:
            self._flag("io", node,
                       f"{'.'.join(chain)}() performs non-channel I/O")
        # data-dependent input selection ------------------------------------
        if self._is_read_call(node):
            receiver = func.value
            if self._tainted_subscript(receiver):
                self._flag("select", node,
                           "input stream selected by channel data: a "
                           "data-dependent merge is not a Kahn process")
            for arg in node.args[:1]:
                if self._tainted_subscript(arg):
                    self._flag("select", node,
                               "input stream selected by channel data: a "
                               "data-dependent merge is not a Kahn process")
        # mutating call on module-level state --------------------------------
        if attr in _MUTATING_METHODS:
            # codec.write(stream, value): the mutated object is the stream
            target = node.args[0] if (attr in ("write", "writelines")
                                      and len(node.args) >= 2) else func.value
            troot = _root_name(target)
            if (troot is not None and troot != "self"
                    and troot not in self.tainted
                    and troot in self.ctx.module_assigned
                    and troot not in self.ctx.module_classes):
                self._flag("global-write", node,
                           f"process body mutates module-level object "
                           f"{troot!r} (shared across processes)")


def _lint_function(fn: ast.AST, ctx: _ModuleContext,
                   subject: str) -> Tuple[List[Finding], bool]:
    """Lint one function node; returns (findings, seeds_explicitly)."""
    linter = _FunctionLinter(ctx)
    for stmt in getattr(fn, "body", []):
        linter.visit(stmt)
    findings: List[Finding] = []
    for rule, line, message in linter.raw:
        if ctx.suppressed(line, rule):
            continue
        findings.append(Finding(rule=rule, severity="error",
                                message=message, analysis="astlint",
                                subject=subject, file=ctx.filename,
                                line=line))
    return findings, linter.seeds_explicitly


def _lint_class(cls: ast.ClassDef, ctx: _ModuleContext) -> List[Finding]:
    declared = _class_nondeterminate(cls)
    findings: List[Finding] = []
    seeded = False
    per_fn: List[Tuple[List[Finding], bool]] = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            subject = f"{cls.name}.{node.name}"
            per_fn.append(_lint_function(node, ctx, subject))
    seeded = any(s for _, s in per_fn)
    for fn_findings, _ in per_fn:
        for f in fn_findings:
            if f.rule == "random" and seeded:
                continue  # class seeds its PRNG explicitly somewhere
            if declared is not None:
                f.severity = "declared"
                f.message += f" [declared nondeterminate: {declared}]"
            findings.append(f)
    return findings


def lint_source(source: str, filename: str = "<string>") -> List[Finding]:
    """Lint every process class found in ``source``."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding(rule="syntax", severity="error",
                        message=f"cannot parse: {exc.msg}",
                        analysis="astlint", file=filename,
                        line=exc.lineno or 0)]
    ctx = _ModuleContext(tree, source, filename)
    findings: List[Finding] = []
    for cls in _process_classes(tree, ctx):
        findings.extend(_lint_class(cls, ctx))
    return findings


def lint_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), filename=path)


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    findings: List[Finding] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for fname in sorted(filenames):
                    if fname.endswith(".py"):
                        findings.extend(lint_file(os.path.join(dirpath, fname)))
        else:
            findings.extend(lint_file(path))
    return findings


def lint_class(klass: type) -> List[Finding]:
    """Lint a live process class via its source module.

    The runtime ``@nondeterminate`` marker is honoured even when the
    decorator was applied under an aliased import the AST pass would
    miss.
    """
    try:
        module_source = inspect.getsource(inspect.getmodule(klass))
        filename = inspect.getsourcefile(klass) or "<unknown>"
    except (TypeError, OSError):
        return []
    tree = ast.parse(module_source, filename=filename)
    ctx = _ModuleContext(tree, module_source, filename)
    declared = declared_nondeterminate(klass)
    findings: List[Finding] = []
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == klass.__name__:
            findings = _lint_class(cls, ctx)
            break
    if declared is not None:
        for f in findings:
            if f.severity != "declared":
                f.severity = "declared"
                f.message += f" [declared nondeterminate: {declared}]"
    return findings


def lint_callable(fn) -> List[Finding]:
    """Lint a bare function shipped into a farm/worker.

    Farm tasks execute inside worker processes, so the same hazards
    (clock, randomness, polling, shared-state mutation) break the
    determinate-farm contract.
    """
    try:
        source = inspect.getsource(fn)
        filename = inspect.getsourcefile(fn) or "<unknown>"
    except (TypeError, OSError):
        return []
    source = _dedent(source)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return []
    ctx = _ModuleContext(tree, source, filename)
    declared = declared_nondeterminate(fn)
    findings: List[Finding] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn_findings, seeded = _lint_function(
                node, ctx, getattr(fn, "__qualname__", node.name))
            for f in fn_findings:
                if f.rule == "random" and seeded:
                    continue
                if declared is not None:
                    f.severity = "declared"
                    f.message += f" [declared nondeterminate: {declared}]"
                findings.append(f)
    return findings


def _dedent(source: str) -> str:
    import textwrap
    return textwrap.dedent(source)
