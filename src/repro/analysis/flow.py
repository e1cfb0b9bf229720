"""Family 3: protocol-flow verification (socket-write seam + message flow).

Force-before-send (§4: a force-log point must happen-before the message
that *reveals* its outcome) is a run-time check, not a lint: senders
stamp the covering record (:data:`repro.net.message.COVERING`), and both
send seams — the simulated network's ``send`` and the TCP transport's
``_write`` — refuse a stamp that is missing, of the wrong kind or not yet
durable.  This module checks what no run-time check can see, plus the
message-flow graph the engines induce:

``flow/rt-durability-gate``
    A run-time check sees only the writes that go through it, so no
    ``.write(`` in ``rt/transport.py`` or ``rt/daemon.py`` may sit outside
    ``TcpTransport._write``: every reply of the daemon (a told COMMIT
    included) leaves through ``TcpTransport.tell``, behind the turn's
    durability gate and through the check.

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

from repro.analysis.dispatch import _class_body, receive_surface, scheme_roles
from repro.analysis.findings import Finding, Severity
from repro.analysis.source import parse_module

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
                        location=f"{rel}:{node.lineno}", anchor=_ANCHOR,
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
