"""Family 2: the networked runtime (``repro.rt``) — blocking calls reachable
from the event loop, and socket writes outside the checked write seam.

The networked runtime is a single asyncio loop per process.  One
synchronous ``fsync`` (or ``time.sleep``, or a file rename) on that loop
stalls *every* connection the daemon serves — and silently defeats the
group-commit design, whose whole point is that force points queue behind
one shared barrier instead of blocking their callers.  Nothing catches
this dynamically: the call succeeds, the daemon just gets slow in a way
that only shows under concurrent load.

This is an AST pass over ``src/repro/rt/``.  Seeds are every coroutine
(``async def``), every generator function (the sim-engine handlers the
pump thread drives share the process), every method of an
``asyncio.Protocol`` subclass (the loop calls ``data_received`` and its
siblings directly) and every method or function handed to the loop as a
plain callback (``call_soon`` / ``call_at`` / ``call_later`` /
``add_done_callback``).  From the seeds it traverses same-class method
calls (``self.helper()``), same-module function calls, and calls through
another object (``self.owner.helper()``) when exactly one class of the
module defines a method of that name — so a sync helper extracted from a
coroutine or a callback stays covered.  Calls into other packages are
not traversed — instead the known blocking surfaces of the storage layer
(the WAL chain) are matched directly at the call site.

Rules (all errors):

``blocking/sync-sleep``
    ``time.sleep`` on the loop.  Use ``asyncio.sleep``.

``blocking/sync-fsync``
    ``os.fsync``, or a WAL-chain durability call — ``*.wal.sync()``,
    ``*.wal.close()`` — each of which fsyncs.  The
    group-commit flusher's ``barrier`` is the one designated site (it
    coalesces everyone else's force points); it carries the pragma.

``blocking/sync-file-io``
    Builtin ``open()`` or a synchronous ``os`` filesystem call
    (``replace``/``rename``/``remove``/``unlink``/``makedirs``/``rmdir``).

``blocking/subprocess``
    ``subprocess.*`` or ``os.system`` — process spawns block and belong
    in the harness (``rt/system.py``), never on the loop.

A spinning loop is not a rule: it is loud (the daemon stops answering),
while every call above succeeds and only slows the loop down.

A line ending in ``# lint: allow-blocking`` suppresses its findings; the
surrounding comment must say why the block is safe there (boot/shutdown
paths before/after serving, or the designated group-commit fsync).

The same module guards the runtime's one socket-write seam:

``flow/rt-durability-gate``
    Force-before-send (§4) is a run-time check at both send seams — the
    simulated network's ``send`` and the TCP transport's ``_write``
    refuse a revealing message whose covering record is not durable
    (:data:`repro.net.message.COVERING`).  A run-time check sees only the
    writes that go through it, so no ``.write(`` in ``rt/transport.py``
    or ``rt/daemon.py`` may sit outside ``TcpTransport._write``: every
    reply of the daemon (a told COMMIT included) leaves through
    ``TcpTransport.tell``, behind the turn's durability gate and through
    the check.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import (
    import_table,
    iter_py_files,
    parse_module,
    resolve_name,
)

_ANCHOR = "event-loop liveness (docs/RUNTIME.md: one loop per daemon)"
_GATE_ANCHOR = "Section 4 (force the log record before revealing the outcome)"

PRAGMA = "lint: allow-blocking"

#: resolved dotted name → rule
_FORBIDDEN: dict[str, str] = {
    "time.sleep": "blocking/sync-sleep",
    "os.fsync": "blocking/sync-fsync",
    "os.fdatasync": "blocking/sync-fsync",
    "os.system": "blocking/subprocess",
    "os.replace": "blocking/sync-file-io",
    "os.rename": "blocking/sync-file-io",
    "os.remove": "blocking/sync-file-io",
    "os.unlink": "blocking/sync-file-io",
    "os.makedirs": "blocking/sync-file-io",
    "os.rmdir": "blocking/sync-file-io",
}

_SUBPROCESS_PREFIX = "subprocess."

#: loop methods whose callable arguments run on the loop, as callbacks
_CALLBACK_TAKERS = (
    "call_soon", "call_soon_threadsafe", "call_at", "call_later",
    "add_done_callback",
)

#: base classes (resolved names) whose methods the loop calls directly
_PROTOCOL_BASES = (
    "asyncio.Protocol", "asyncio.BufferedProtocol",
    "asyncio.DatagramProtocol", "asyncio.SubprocessProtocol",
)

#: attribute-call suffixes on the WAL chain that hit the disk.  Matched
#: only when the receiver chain names the WAL (``self.wal.sync``,
#: ``self.site.wal.close``) so an asyncio ``writer.close()`` stays clean.
_WAL_SUFFIXES = (".sync", ".close")


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


FnDef = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class _Fn:
    """One function in the rt tree, with its traversal edges."""

    rel: str
    qualname: str
    node: FnDef
    class_name: str | None
    is_seed: bool
    #: names callable from this body: same-class methods + module funcs
    calls: list[str] = field(default_factory=list)
    #: method names called through another object (``a.b.name()``)
    foreign_calls: list[str] = field(default_factory=list)
    #: names this body hands to the loop as callbacks (same resolution
    #: as ``calls``)
    callbacks: list[str] = field(default_factory=list)


def _own_nodes(fn: FnDef) -> list[ast.AST]:
    """Every AST node of ``fn``'s body, excluding nested function/class
    definitions (a nested ``def`` runs only when called — it is its own
    unit, seeded separately if async/generator)."""
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue
            stack.append(child)
    return nodes


def _is_generator(fn: FnDef) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in _own_nodes(fn)
    )


def _index_module(path: Path, rel: str) -> tuple[
    list[_Fn], dict[str, dict[str, _Fn]], dict[str, _Fn], dict[str, str]
]:
    """All functions of one module, keyed for traversal, and its imports."""
    tree = parse_module(path)
    table = import_table(tree)
    fns: list[_Fn] = []
    by_class: dict[str, dict[str, _Fn]] = {}
    module_fns: dict[str, _Fn] = {}

    def local_name(node: ast.expr) -> str | None:
        """``self.helper`` / ``helper`` as the name traversal resolves."""
        name = _dotted(node)
        if name is None:
            return None
        if name.startswith("self.") and name.count(".") == 1:
            return name[5:]
        return None if "." in name else name

    def make(node: FnDef, class_name: str | None, protocol: bool) -> _Fn:
        qual = (
            f"{class_name}.{node.name}" if class_name else node.name
        )
        is_seed = protocol or isinstance(
            node, ast.AsyncFunctionDef
        ) or _is_generator(node)
        fn = _Fn(
            rel=rel, qualname=qual, node=node,
            class_name=class_name, is_seed=is_seed,
        )
        for sub in _own_nodes(node):
            if not isinstance(sub, ast.Call):
                continue
            name = local_name(sub.func)
            if name is not None:
                fn.calls.append(name)
            elif isinstance(sub.func, ast.Attribute):
                fn.foreign_calls.append(sub.func.attr)
                if sub.func.attr in _CALLBACK_TAKERS:
                    fn.callbacks.extend(
                        handed for arg in sub.args
                        if (handed := local_name(arg)) is not None
                    )
        return fn

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = make(stmt, None, False)
            fns.append(fn)
            module_fns[stmt.name] = fn
        elif isinstance(stmt, ast.ClassDef):
            protocol = any(
                resolve_name(base, table) in _PROTOCOL_BASES
                for base in stmt.bases
                if isinstance(base, (ast.Attribute, ast.Name))
            )
            methods: dict[str, _Fn] = {}
            for member in stmt.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    fn = make(member, stmt.name, protocol)
                    fns.append(fn)
                    methods[member.name] = fn
            by_class[stmt.name] = methods
    return fns, by_class, module_fns, table


def analyze_rt_blocking(root: Path) -> list[Finding]:
    """Run the blocking-call rules over every module under ``rt/``."""
    rt_root = root / "rt"
    findings: list[Finding] = []
    for path in iter_py_files(rt_root):
        rel = f"rt/{path.relative_to(rt_root).as_posix()}"
        findings.extend(_analyze_module(path, rel))
    return findings


def _analyze_module(path: Path, rel: str) -> list[Finding]:
    fns, by_class, module_fns, table = _index_module(path, rel)
    lines = path.read_text(encoding="utf-8").splitlines()

    def local(fn: _Fn, name: str) -> _Fn | None:
        target = by_class.get(fn.class_name or "", {}).get(name)
        return target if target is not None else module_fns.get(name)

    #: method name -> its one definition in this module (None if several)
    unique: dict[str, _Fn | None] = {}
    for methods in by_class.values():
        for name, method in methods.items():
            unique[name] = None if name in unique else method

    for fn in fns:
        for name in fn.callbacks:
            handed = local(fn, name)
            if handed is not None:
                handed.is_seed = True

    # reachability: seeds, then same-class / same-module sync callees
    reachable: dict[int, tuple[_Fn, str]] = {}
    queue: list[tuple[_Fn, str]] = [
        (fn, fn.qualname) for fn in fns if fn.is_seed
    ]
    while queue:
        fn, via = queue.pop(0)
        if id(fn.node) in reachable:
            continue
        reachable[id(fn.node)] = (fn, via)
        targets = [local(fn, callee) for callee in fn.calls]
        targets += [unique.get(callee) for callee in fn.foreign_calls]
        for target in targets:
            if target is not None and id(target.node) not in reachable:
                queue.append((target, via))

    def suppressed(lineno: int) -> bool:
        return 0 < lineno <= len(lines) and PRAGMA in lines[lineno - 1]

    findings: list[Finding] = []

    def add(rule: str, lineno: int, message: str) -> None:
        if suppressed(lineno):
            return
        findings.append(Finding(
            rule=rule,
            severity=Severity.ERROR,
            location=f"{rel}:{lineno}",
            message=message,
            anchor=_ANCHOR,
        ))

    for fn, via in reachable.values():
        origin = (
            f"{fn.qualname} (runs on the event loop)"
            if fn.is_seed
            else f"{fn.qualname} (reachable from {via})"
        )
        for node in _own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            resolved = (
                resolve_name(node.func, table)
                if isinstance(node.func, (ast.Attribute, ast.Name))
                else None
            )
            if resolved is not None:
                rule = _FORBIDDEN.get(resolved)
                if rule is None and resolved.startswith(_SUBPROCESS_PREFIX):
                    rule = "blocking/subprocess"
                if rule is not None:
                    add(
                        rule, node.lineno,
                        f"{origin} calls {resolved}() — blocks the "
                        f"loop; move it off-thread or behind the "
                        f"group-commit barrier",
                    )
                    continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                add(
                    "blocking/sync-file-io", node.lineno,
                    f"{origin} calls builtin open() — synchronous "
                    f"file IO on the loop",
                )
                continue
            if name is not None:
                on_wal = name.startswith("wal.") or ".wal." in name
                if on_wal and name.endswith(_WAL_SUFFIXES):
                    add(
                        "blocking/sync-fsync", node.lineno,
                        f"{origin} calls {name}() — a WAL-chain "
                        f"durability call that fsyncs on the loop; "
                        f"route force points through the "
                        f"group-commit barrier",
                    )
    return findings


# -- the runtime's socket-write seam ---------------------------------------


def analyze_rt_gate(root: Path) -> list[Finding]:
    """No ``.write(`` in the runtime's transport or daemon outside
    ``TcpTransport._write``, the seam that checks force-before-send."""
    findings: list[Finding] = []
    for rel in ("rt/transport.py", "rt/daemon.py"):
        tree = parse_module(root / rel)
        scopes = [("", tree.body)] + [
            (f"{node.name}.", node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)
        ]
        for prefix, body in scopes:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = prefix + fn.name
                if (rel, name) == ("rt/transport.py", "TcpTransport._write"):
                    continue
                findings.extend(
                    Finding(
                        rule="flow/rt-durability-gate", severity=Severity.ERROR,
                        location=f"{rel}:{node.lineno}", anchor=_GATE_ANCHOR,
                        message=(
                            f"{name} writes to a socket at line {node.lineno}, "
                            "outside TcpTransport._write — the frame skips the "
                            "durability gate and the force-before-send check"
                        ),
                    )
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write"
                )
    return findings
