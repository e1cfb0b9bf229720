"""Family 3: protocol-flow verification (durability gate + message flow).

The paper's recovery argument rests on one ordering rule: a force-log
point must happen-before the message that *reveals* its outcome (§4).
That rule is a run-time check now, not a lint: the covering table
(:data:`repro.net.message.COVERING`) names every revealing message and
the records that may cover it, each sender stamps the covering record on
the message, and the simulated network's ``send`` refuses a message whose
stamp is missing, of the wrong kind or not yet durable — on every path a
test, a checker schedule or a benchmark run executes.

This module checks what no simulated send can see, plus the message-flow
graph the engines induce:

``flow/rt-durability-gate``
    The networked runtime moves durability to the transport: under group
    commit the WAL buffers forced appends and every outbound frame must
    pass ``durability_gate`` (the group-commit barrier) before it reaches
    the socket.  The rule requires ``TcpTransport.flush`` — the tail of
    every pump turn — to await the gate before it writes; every
    ``.write(`` in ``rt/transport.py`` to sit in ``TcpTransport._write``;
    any caller of ``_write`` other than ``flush`` (the late write on
    connect / ``resume_writing``) to pass messages it took from a link's
    ``gated`` queue; and only ``_write`` to add to such a queue — so
    nothing reaches a socket that did not pass a gate inside ``flush``.
    The WAL's host, ``SiteDaemon`` — its participant's force points and
    its coordinators' DECIDE records — must install the gate
    (``self.transport.durability_gate = ...``) and must write no frame
    itself: every reply, the told COMMIT of a commit point included,
    leaves through ``TcpTransport.tell``, which ``flush`` writes behind
    the gate, so no caller hears of a DECIDE the log could still lose.

``msgflow/orphan-send`` / ``msgflow/dead-handler``
    Per scheme, the role→MsgType→role flow graph built from send-site
    extraction and the ``_HANDLERS``/``_COLLECTS`` declarations must be
    closed: every sent type has a receiving role, every handled type has
    a sender.  This generalizes the dispatch family's set-equality check
    to actual flow — a handler deleted from *one* engine is caught even
    while the union over all engines still covers the type.  The roles
    are the classes the engine registry names
    (:func:`~repro.analysis.dispatch.scheme_roles`), so the graph is the
    one that runs: register the wrong class for a role and its sends go
    unanswered here.

The per-scheme graphs are exported as Graphviz DOT via ``repro lint
--flow-dot`` (see :func:`render_flow_dot`) for the docs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.dispatch import (
    _class_body,
    receive_surface,
    scheme_roles,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.source import parse_module
from repro.errors import AnalysisError

_ANCHOR = "Section 4 (force the log record before revealing the outcome)"

#: splice depth bound for super / module-function resolution
_MAX_DEPTH = 8


# -- AST utilities ---------------------------------------------------------------


def _dotted(node: ast.expr) -> str | None:
    """``self.site.ltm.prepare`` as a dotted string, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _msgtype_name(node: ast.expr | None) -> str | None:
    """The ``X`` of a literal ``MsgType.X`` reference."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "MsgType"
    ):
        return node.attr
    return None


def _extract_send(call: ast.Call) -> str | None:
    """The message type name when ``call`` builds a protocol message.

    Recognized shapes — the only two the engines use:

    * ``Message(msg_type=MsgType.X, ...)`` (sent at once, or stamped
      first and then sent)
    * ``<anything>._reply(msg, MsgType.X, ...)``

    A message whose type is not a literal ``MsgType.X`` (e.g. the generic
    one inside ``Message.reply``) is not an event; the call *sites* carry
    the literal and are extracted instead.
    """
    func = call.func
    if isinstance(func, ast.Name) and func.id == "Message":
        for kw in call.keywords:
            if kw.arg == "msg_type":
                return _msgtype_name(kw.value)
        return None
    name = _dotted(func)
    if (
        name is not None
        and (name == "_reply" or name.endswith("._reply"))
        and len(call.args) >= 2
    ):
        return _msgtype_name(call.args[1])
    return None


# -- class / module models -------------------------------------------------------


FnDef = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class _ClassModel:
    """One engine class: its methods and the module around it."""

    rel: str
    methods: dict[str, FnDef]
    module_functions: dict[str, FnDef]


def _load_class(root: Path, rel: str, class_name: str) -> _ClassModel:
    path = root / rel
    tree = parse_module(path)
    cls = _class_body(tree, class_name, path)
    methods = {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    module_functions = {
        stmt.name: stmt
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return _ClassModel(
        rel=rel,
        methods=methods,
        module_functions=module_functions,
    )


# -- the rt durability gate ----------------------------------------------


def _assign_pairs(fn: FnDef) -> list[tuple[ast.expr, ast.expr]]:
    """``(target, value)`` of every assignment in ``fn``, tuples unpacked."""
    pairs: list[tuple[ast.expr, ast.expr]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs.append((node.target, node.value))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Tuple)
                    and isinstance(node.value, ast.Tuple)
                    and len(target.elts) == len(node.value.elts)
                ):
                    pairs.extend(zip(target.elts, node.value.elts))
                else:
                    pairs.append((target, node.value))
    return pairs


def _is_gated(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "gated"


def _grows_gated(node: ast.AST) -> bool:
    """``x.gated += ...`` / ``x.gated.append(...)`` / ``.extend(...)``."""
    if isinstance(node, ast.AugAssign):
        return _is_gated(node.target)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("append", "extend")
        and _is_gated(node.func.value)
    )


def _transport_gate(root: Path) -> list[Finding]:
    """Nothing in ``rt/transport.py`` writes what no gate has covered."""
    rel = "rt/transport.py"
    tree = parse_module(root / rel)
    flush = next(
        (
            stmt for stmt in _class_body(tree, "TcpTransport", root / rel).body
            if isinstance(stmt, ast.AsyncFunctionDef) and stmt.name == "flush"
        ),
        None,
    )
    if flush is None:
        raise AnalysisError(f"TcpTransport.flush not found in {root / rel}")
    findings: list[Finding] = []

    def error(lineno: int, message: str) -> None:
        findings.append(Finding(
            rule="flow/rt-durability-gate", severity=Severity.ERROR,
            location=f"{rel}:{lineno}", message=message, anchor=_ANCHOR,
        ))

    gate = min(
        (
            node.lineno for node in ast.walk(flush)
            if isinstance(node, ast.Await)
            and isinstance(node.value, ast.Call)
            and _dotted(node.value.func) == "self.durability_gate"
        ),
        default=None,
    )
    if gate is None:
        error(flush.lineno, (
            "TcpTransport.flush never awaits self.durability_gate() — "
            "under group commit a frame could reveal a force point still "
            "sitting in the WAL buffer"
        ))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        from_gated = {
            target.id for target, value in _assign_pairs(fn)
            if isinstance(target, ast.Name) and _is_gated(value)
        }
        for node in ast.walk(fn):
            if _grows_gated(node) and fn.name != "_write":
                error(node.lineno, (
                    f"{fn.name} adds to a gated queue at line "
                    f"{node.lineno}; only TcpTransport._write, which "
                    "flush calls behind the gate, may park messages"
                ))
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func) or ""
            if name.endswith(".write"):
                if fn.name != "_write":
                    error(node.lineno, (
                        f"{fn.name} writes to a socket at line "
                        f"{node.lineno}, outside TcpTransport._write"
                    ))
            elif not name.endswith("._write"):
                continue
            elif fn is flush:
                if gate is not None and node.lineno < gate:
                    error(node.lineno, (
                        f"frame written to the socket at line "
                        f"{node.lineno}, before the durability gate "
                        f"awaited at line {gate}"
                    ))
            elif not any(
                isinstance(arg, ast.Name) and arg.id in from_gated
                for arg in node.args[-1:]
            ):
                error(node.lineno, (
                    f"{fn.name} calls _write with messages that were not "
                    "taken from a link's gated queue — a late write may "
                    "only carry what already passed a gate"
                ))
        for target, value in _assign_pairs(fn):
            if _is_gated(target) and not (
                isinstance(value, ast.List) and not value.elts
            ):
                error(target.lineno, (
                    f"{fn.name} assigns a gated queue at line "
                    f"{target.lineno}; it may only be emptied there"
                ))
    return findings


def analyze_rt_gate(root: Path) -> list[Finding]:
    """Sends in the networked runtime route through ``durability_gate``."""
    findings = _transport_gate(root)
    rel = "rt/daemon.py"
    daemon = _load_class(root, rel, "SiteDaemon")

    def error(lineno: int, message: str) -> None:
        findings.append(Finding(
            rule="flow/rt-durability-gate", severity=Severity.ERROR,
            location=f"{rel}:{lineno}", message=message, anchor=_ANCHOR,
        ))

    installed = False
    for name, fn in daemon.methods.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                installed |= any(
                    _dotted(target) == "self.transport.durability_gate"
                    for target in node.targets
                )
            elif isinstance(node, ast.Call) and (
                _dotted(node.func) or ""
            ).endswith(".write"):
                error(node.lineno, (
                    f"SiteDaemon.{name} writes to a socket at line "
                    f"{node.lineno} — a reply must leave through "
                    "self.transport.tell, behind the durability gate, or "
                    "a told COMMIT can reveal a DECIDE still in the WAL "
                    "buffer"
                ))
    if not installed:
        error(1, (
            "SiteDaemon never installs the group-commit barrier as "
            "self.transport.durability_gate — buffered force points "
            "would never gate outbound frames"
        ))
    return findings


# -- the message-flow graph ------------------------------------------------------


@dataclass
class RoleFlow:
    """One role's receive surface and send sites within a scheme."""

    role: str
    #: MsgType member → declaration lineno (from _HANDLERS/_COLLECTS)
    receives: dict[str, int]
    #: where the declaration lives, for finding locations
    receives_rel: str
    #: MsgType member → sorted list of "rel:lineno" send sites
    sends: dict[str, list[str]] = field(default_factory=dict)


def _collect_sends(
    chain: list[_ClassModel], sink: dict[str, list[str]]
) -> None:
    """Union of send sites over the chain's *effective* methods.

    Effective = subclass-first method resolution; a ``super().m()`` call
    splices the next definition of ``m`` up the chain (Short-Commit
    delegates SUBTXN_REQ/DECISION handling to the base participant), and
    a bare call to a module-level function of the defining class's module
    splices that function (the Paxos termination protocol lives in one).
    """
    effective: dict[str, tuple[int, FnDef]] = {}
    for idx, model in enumerate(chain):
        for name, fn in model.methods.items():
            effective.setdefault(name, (idx, fn))

    def emit(model: _ClassModel, node: ast.AST) -> None:
        for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
            send = _extract_send(call)
            if send is not None:
                sink.setdefault(send, []).append(
                    f"{model.rel}:{call.lineno}"
                )

    def visit(idx: int, fn: FnDef, seen: frozenset[tuple[int, str]]) -> None:
        model = chain[idx]
        emit(model, fn)
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            func = call.func
            # super().m(...): resolve up the chain past the defining class
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                for nxt in range(idx + 1, len(chain)):
                    target = chain[nxt].methods.get(func.attr)
                    if target is not None:
                        key = (nxt, func.attr)
                        if key not in seen and len(seen) < _MAX_DEPTH:
                            visit(nxt, target, seen | {key})
                        break
            # bare module-function call in the defining class's module
            elif isinstance(func, ast.Name):
                target = model.module_functions.get(func.id)
                if target is not None:
                    key = (idx, f"module:{func.id}")
                    if key not in seen and len(seen) < _MAX_DEPTH:
                        # module functions send directly; no further
                        # super resolution applies inside them
                        emit(model, target)

    for name, (idx, fn) in sorted(effective.items()):
        visit(idx, fn, frozenset({(idx, name)}))


def build_flow_graphs(root: Path) -> dict[str, list[RoleFlow]]:
    """Per scheme, each role's receive surface and send sites."""
    graphs: dict[str, list[RoleFlow]] = {}
    models: dict[tuple[str, str], _ClassModel] = {}

    def load(rel: str, class_name: str) -> _ClassModel:
        key = (rel, class_name)
        if key not in models:
            models[key] = _load_class(root, rel, class_name)
        return models[key]

    for scheme, roles in scheme_roles().items():
        flows: list[RoleFlow] = []
        for role, chain_spec in sorted(roles.items()):
            (rel, _class_name), declared = receive_surface(root, chain_spec)
            flow = RoleFlow(
                role=role, receives=dict(declared), receives_rel=rel,
            )
            _collect_sends([load(*link) for link in chain_spec], flow.sends)
            for sites in flow.sends.values():
                sites.sort()
            flows.append(flow)
        graphs[scheme] = flows
    return graphs


def flow_edges(flows: list[RoleFlow]) -> list[tuple[str, str, str]]:
    """Deterministic (sender role, MsgType, receiver role) edge list."""
    edges: set[tuple[str, str, str]] = set()
    for sender in flows:
        for msg_type in sender.sends:
            for receiver in flows:
                if msg_type in receiver.receives:
                    edges.add((sender.role, msg_type, receiver.role))
    return sorted(edges)


def analyze_message_flow(root: Path) -> list[Finding]:
    """Orphan sends and dead handlers per scheme."""
    findings: list[Finding] = []
    for scheme, flows in sorted(build_flow_graphs(root).items()):
        receivable: dict[str, list[str]] = {}
        sent: dict[str, list[str]] = {}
        for flow in flows:
            for msg_type in flow.receives:
                receivable.setdefault(msg_type, []).append(flow.role)
            for msg_type in flow.sends:
                sent.setdefault(msg_type, []).append(flow.role)

        for flow in flows:
            for msg_type, sites in sorted(flow.sends.items()):
                if msg_type not in receivable:
                    findings.append(Finding(
                        rule="msgflow/orphan-send",
                        severity=Severity.ERROR,
                        location=sites[0],
                        message=(
                            f"scheme {scheme}: role {flow.role!r} sends "
                            f"MsgType.{msg_type} but no role of the scheme "
                            f"has a handler for it — the message is "
                            f"silently dropped"
                        ),
                        anchor=_ANCHOR,
                    ))
            for msg_type, lineno in sorted(flow.receives.items()):
                if msg_type not in sent:
                    findings.append(Finding(
                        rule="msgflow/dead-handler",
                        severity=Severity.ERROR,
                        location=f"{flow.receives_rel}:{lineno}",
                        message=(
                            f"scheme {scheme}: role {flow.role!r} declares "
                            f"a handler for MsgType.{msg_type} but no role "
                            f"of the scheme ever sends it"
                        ),
                        anchor=_ANCHOR,
                    ))
    return findings


def render_flow_dot(root: Path) -> dict[str, str]:
    """One deterministic Graphviz digraph per scheme (for the docs/CI)."""
    graphs = build_flow_graphs(root)
    rendered: dict[str, str] = {}
    for scheme, flows in sorted(graphs.items()):
        lines = [
            f"digraph flow_{scheme} {{",
            "  rankdir=LR;",
            '  node [shape=box, fontname="Helvetica"];',
        ]
        for flow in flows:
            lines.append(f'  "{flow.role}";')
        for sender, msg_type, receiver in flow_edges(flows):
            lines.append(
                f'  "{sender}" -> "{receiver}" [label="{msg_type}"];'
            )
        lines.append("}")
        rendered[scheme] = "\n".join(lines) + "\n"
    return rendered
