"""Family 3: protocol-flow verification (force-before-send + message flow).

The paper's recovery argument rests on an ordering discipline the code
previously enforced only by convention: a force-log point must
happen-before the message that *reveals* its outcome.  A participant
forces PREPARE (or LOCAL_COMMIT under O2PC) before voting YES, the
coordinator appends to its decision log before any non-presumed DECISION
leaves, and a Paxos acceptor persists its promise/accept state before the
PAXOS_ACCEPTED reply.  Swap a force past a send and every test still
passes — the bug only exists in the crash window between them.

This module checks the discipline statically, per engine, plus the
message-flow graph the engines induce:

``flow/unforced-send``
    An AST dataflow pass over each registered engine class.  Per handler
    it tracks, along every path, whether a *covering force point* has
    definitely executed, splicing same-class helper calls (with literal
    argument mapping, so ``self._send_ballot_zero(txn, "NO", ...)`` is
    recognized as the exempt NO vote) and flags any outcome-revealing
    send reachable with the force not yet guaranteed.  Presumed-abort
    sends (``DECISION`` carrying a literal ``"ABORT"``) and NO votes are
    exempt by the protocol's own argument.  Loops and ``try`` blocks are
    handled conservatively (coverage gained inside is not trusted
    afterwards); branch merges require the force on *all* live arms.
    Suppress a deliberate exception with ``# lint: allow-unforced-send``.

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

``flow/force-point-drift``
    ``LocalTransactionManager._FORCE_POINTS`` declares which methods are
    force points.  The rule checks the declaration against the method
    bodies in both directions: a declared method must contain a
    ``wal.append(..., force=True)`` and every method containing one must
    be declared — so a refactor that silently drops a force shows up.

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
    class_rel,
    receive_surface,
    scheme_roles,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.source import parse_module
from repro.commit.coordinator import Coordinator
from repro.commit.participant import Participant
from repro.errors import AnalysisError
from repro.protocols.acceptor import Acceptor
from repro.protocols.paxos import PaxosParticipant
from repro.protocols.short import ShortParticipant

_ANCHOR = "Section 4 (force the log record before revealing the outcome)"

PRAGMA = "lint: allow-unforced-send"

#: splice depth bound for helper/super resolution (cycle-guarded anyway)
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


def _tag_value(
    node: ast.expr | None, bindings: dict[str, str | None]
) -> str | None:
    """A payload value as a literal string, through parameter bindings.

    Returns the literal when statically known, None when dynamic — the
    caller must treat None conservatively (obligated).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    return None


def _payload_tags(
    node: ast.expr | None, bindings: dict[str, str | None]
) -> dict[str, str | None]:
    """String-keyed payload entries resolved to literals where possible."""
    tags: dict[str, str | None] = {}
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                tags[key.value] = _tag_value(value, bindings)
    return tags


def _extract_send(
    call: ast.Call, bindings: dict[str, str | None]
) -> tuple[str, dict[str, str | None]] | None:
    """(msg type name, payload tags) when ``call`` is a protocol send.

    Recognized shapes — the only two the engines use:

    * ``<anything>.send(Message(msg_type=MsgType.X, ..., payload={...}))``
    * ``<anything>._reply(msg, MsgType.X, {...})``

    A send whose message type is not a literal ``MsgType.X`` (e.g. the
    generic forward inside ``_reply`` itself) is not an event; the call
    *sites* carry the literal and are extracted instead.
    """
    func = call.func
    name = _dotted(func)
    if name is not None and (name == "send" or name.endswith(".send")):
        if (
            call.args
            and isinstance(call.args[0], ast.Call)
            and isinstance(call.args[0].func, ast.Name)
            and call.args[0].func.id == "Message"
        ):
            message = call.args[0]
            msg_type: ast.expr | None = None
            payload: ast.expr | None = None
            for kw in message.keywords:
                if kw.arg == "msg_type":
                    msg_type = kw.value
                elif kw.arg == "payload":
                    payload = kw.value
            member = _msgtype_name(msg_type)
            if member is not None:
                return member, _payload_tags(payload, bindings)
        return None
    if name is not None and (name == "_reply" or name.endswith("._reply")):
        if len(call.args) >= 2:
            member = _msgtype_name(call.args[1])
            if member is not None:
                payload = call.args[2] if len(call.args) >= 3 else None
                return member, _payload_tags(payload, bindings)
    return None


# -- class / module models -------------------------------------------------------


FnDef = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class _ClassModel:
    """One engine class: its methods and the module around it."""

    name: str
    path: Path
    rel: str
    methods: dict[str, FnDef]
    module_functions: dict[str, FnDef]
    lines: list[str]

    def suppressed(self, lineno: int) -> bool:
        return 0 < lineno <= len(self.lines) and PRAGMA in self.lines[lineno - 1]


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
        name=class_name,
        path=path,
        rel=rel,
        methods=methods,
        module_functions=module_functions,
        lines=path.read_text(encoding="utf-8").splitlines(),
    )


# -- rule 1: force-before-send ---------------------------------------------------


@dataclass(frozen=True)
class Obligation:
    """One force-before-send contract on one engine class."""

    #: what the contract protects, for the finding message
    what: str
    #: the engine class bound by it (its AST is read from the scanned root)
    cls: type[object]
    msg_type: str
    #: payload key carrying the outcome (None: every send is obligated)
    tag_key: str | None
    #: literal tag values exempt from the rule (presumed outcomes)
    exempt: frozenset[str]
    #: dotted suffixes; executing any one of them satisfies the contract
    covering: tuple[str, ...]


#: the discipline, straight from the paper's recovery argument (and Gray &
#: Lamport's for the Paxos rows)
OBLIGATIONS: tuple[Obligation, ...] = (
    Obligation(
        what="a YES vote reveals the prepare/local-commit force point",
        cls=Participant,
        msg_type="VOTE",
        tag_key="vote",
        exempt=frozenset({"NO"}),
        covering=("ltm.prepare", "ltm.local_commit"),
    ),
    Obligation(
        what="a Short-Commit YES vote reveals the prepare force point",
        cls=ShortParticipant,
        msg_type="VOTE",
        tag_key="vote",
        exempt=frozenset({"NO"}),
        covering=("ltm.prepare",),
    ),
    Obligation(
        what="a ballot-0 YES accept reveals the prepare force point",
        cls=PaxosParticipant,
        msg_type="PAXOS_ACCEPT",
        tag_key="value",
        exempt=frozenset({"NO"}),
        covering=("ltm.prepare",),
    ),
    Obligation(
        what="a DECISION reveals the decision-log force point",
        cls=Coordinator,
        msg_type="DECISION",
        tag_key="decision",
        # presumed abort: an ABORT decision needs no log record — a
        # coordinator that forgot the transaction answers ABORT anyway
        exempt=frozenset({"ABORT"}),
        covering=("decision_log.append",),
    ),
    Obligation(
        what="PAXOS_ACCEPTED reveals the acceptor's durable accept",
        cls=Acceptor,
        msg_type="PAXOS_ACCEPTED",
        tag_key=None,
        exempt=frozenset(),
        covering=("wal.append",),
    ),
)


@dataclass
class _SendEvent:
    msg_type: str
    tags: dict[str, str | None]
    covered: bool
    lineno: int
    chain: str


class _ForceFlow:
    """The per-class dataflow pass behind ``flow/unforced-send``.

    State is a single boolean — "some member of the covering set has
    definitely executed on every path to here" — threaded through the
    statement list.  If-merges AND the arms still live; loop and try
    bodies are analyzed for their send events but any coverage they gain
    is discarded (they may run zero times / raise early).
    """

    def __init__(self, model: _ClassModel, covering: tuple[str, ...]) -> None:
        self.model = model
        self.covering = covering
        self.sends: list[_SendEvent] = []

    # entry point -----------------------------------------------------------

    def run(self, method_name: str) -> None:
        fn = self.model.methods[method_name]
        self._block(fn.body, False, {}, (method_name,))

    def roots(self) -> list[str]:
        """Methods never invoked as ``self.X(...)`` by a class peer."""
        called: set[str] = set()
        for fn in self.model.methods.values():
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    helper = self._helper_name(node)
                    if helper is not None:
                        called.add(helper)
        return sorted(set(self.model.methods) - called)

    # statement dispatch ----------------------------------------------------

    def _block(
        self,
        stmts: list[ast.stmt],
        covered: bool,
        bindings: dict[str, str | None],
        stack: tuple[str, ...],
    ) -> tuple[bool, bool]:
        terminated = False
        for stmt in stmts:
            if terminated:
                break
            covered, terminated = self._stmt(stmt, covered, bindings, stack)
        return covered, terminated

    def _stmt(
        self,
        stmt: ast.stmt,
        covered: bool,
        bindings: dict[str, str | None],
        stack: tuple[str, ...],
    ) -> tuple[bool, bool]:
        if isinstance(stmt, ast.If):
            covered = self._scan(stmt.test, covered, bindings, stack)
            c1, t1 = self._block(stmt.body, covered, bindings, stack)
            c2, t2 = self._block(stmt.orelse, covered, bindings, stack)
            if t1 and t2:
                return covered, True
            if t1:
                return c2, False
            if t2:
                return c1, False
            return c1 and c2, False
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            covered = self._scan(head, covered, bindings, stack)
            # conservative: the body may run zero times, so its events are
            # checked at entry coverage and its gains are discarded
            self._block(stmt.body, covered, bindings, stack)
            self._block(stmt.orelse, covered, bindings, stack)
            return covered, False
        if isinstance(stmt, ast.Try):
            # conservative: the body may raise between any two statements
            self._block(stmt.body, covered, bindings, stack)
            for handler in stmt.handlers:
                self._block(handler.body, covered, bindings, stack)
            self._block(stmt.orelse, covered, bindings, stack)
            _c, t = self._block(stmt.finalbody, covered, bindings, stack)
            return covered, t
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                covered = self._scan(
                    item.context_expr, covered, bindings, stack
                )
            return self._block(stmt.body, covered, bindings, stack)
        if isinstance(stmt, ast.Return):
            covered = self._scan(stmt.value, covered, bindings, stack)
            return covered, True
        if isinstance(stmt, ast.Raise):
            covered = self._scan(stmt.exc, covered, bindings, stack)
            return covered, True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return covered, True
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return covered, False
        return self._scan(stmt, covered, bindings, stack), False

    # expression-level events -----------------------------------------------

    def _scan(
        self,
        node: ast.AST | None,
        covered: bool,
        bindings: dict[str, str | None],
        stack: tuple[str, ...],
    ) -> bool:
        if node is None:
            return covered
        for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
            send = _extract_send(call, bindings)
            if send is not None:
                msg_type, tags = send
                self.sends.append(_SendEvent(
                    msg_type=msg_type,
                    tags=tags,
                    covered=covered,
                    lineno=call.lineno,
                    chain=" -> ".join(stack),
                ))
                continue
            if self._is_force(call):
                covered = True
                continue
            helper = self._helper_name(call)
            if (
                helper is not None
                and helper not in stack
                and len(stack) < _MAX_DEPTH
            ):
                fn = self.model.methods[helper]
                child = self._bind(fn, call, bindings)
                gained, _t = self._block(
                    fn.body, covered, child, stack + (helper,)
                )
                covered = covered or gained
        return covered

    def _is_force(self, call: ast.Call) -> bool:
        name = _dotted(call.func)
        if name is None:
            return False
        return any(
            name == member or name.endswith("." + member)
            for member in self.covering
        )

    def _helper_name(self, call: ast.Call) -> str | None:
        name = _dotted(call.func)
        if (
            name is not None
            and name.startswith("self.")
            and name.count(".") == 1
            and name[5:] in self.model.methods
        ):
            return name[5:]
        return None

    def _bind(
        self,
        fn: FnDef,
        call: ast.Call,
        caller_bindings: dict[str, str | None],
    ) -> dict[str, str | None]:
        """Map the helper's parameters to literal argument values."""
        params = [a.arg for a in fn.args.args[1:]]  # skip self
        bindings: dict[str, str | None] = {}
        for param, arg in zip(params, call.args):
            bindings[param] = _tag_value(arg, caller_bindings)
        for kw in call.keywords:
            if kw.arg is not None:
                bindings[kw.arg] = _tag_value(kw.value, caller_bindings)
        return bindings


def analyze_force_before_send(root: Path) -> list[Finding]:
    """Run every :data:`OBLIGATIONS` row; one finding per unforced path."""
    findings: list[Finding] = []
    for ob in OBLIGATIONS:
        model = _load_class(root, class_rel(ob.cls), ob.cls.__name__)
        flow = _ForceFlow(model, ob.covering)
        for method in flow.roots():
            flow.run(method)
        for send in flow.sends:
            if send.msg_type != ob.msg_type:
                continue
            if ob.tag_key is not None:
                tag = send.tags.get(ob.tag_key)
                if tag is not None and tag in ob.exempt:
                    continue
            if send.covered:
                continue
            if model.suppressed(send.lineno):
                continue
            findings.append(Finding(
                rule="flow/unforced-send",
                severity=Severity.ERROR,
                location=f"{model.rel}:{send.lineno}",
                message=(
                    f"{model.name}.{send.chain} sends "
                    f"MsgType.{ob.msg_type} on a path where no covering "
                    f"force point ({', '.join(ob.covering)}) is guaranteed "
                    f"to have executed — {ob.what}"
                ),
                anchor=_ANCHOR,
            ))
    return findings


# -- rule 2: the rt durability gate ----------------------------------------------


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


# -- rule 3: force-point drift ---------------------------------------------------


def analyze_force_points(root: Path) -> list[Finding]:
    """``_FORCE_POINTS`` ⟺ methods containing ``wal.append(force=True)``."""
    rel = "txn/local_manager.py"
    path = root / rel
    tree = parse_module(path)
    cls = _class_body(tree, "LocalTransactionManager", path)

    declared: dict[str, int] = {}
    decl_lineno: int | None = None
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_FORCE_POINTS"
            for t in stmt.targets
        ):
            if not isinstance(stmt.value, (ast.Tuple, ast.List)):
                raise AnalysisError(
                    f"_FORCE_POINTS in {path} is not a literal tuple"
                )
            decl_lineno = stmt.lineno
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(
                    elt.value, str
                ):
                    declared[elt.value] = elt.lineno
    if decl_lineno is None:
        raise AnalysisError(
            f"LocalTransactionManager._FORCE_POINTS not found in {path}"
        )

    forcing: dict[str, int] = {}
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is None or not name.endswith("wal.append"):
                    continue
                for kw in node.keywords:
                    if (
                        kw.arg == "force"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        forcing.setdefault(stmt.name, stmt.lineno)

    findings: list[Finding] = []
    for method, lineno in sorted(declared.items()):
        if method not in forcing:
            findings.append(Finding(
                rule="flow/force-point-drift",
                severity=Severity.ERROR,
                location=f"{rel}:{lineno}",
                message=(
                    f"_FORCE_POINTS declares {method!r} but the method "
                    f"contains no wal.append(..., force=True) — the "
                    f"declared durability contract is no longer met"
                ),
                anchor=_ANCHOR,
            ))
    for method, lineno in sorted(forcing.items()):
        if method not in declared:
            findings.append(Finding(
                rule="flow/force-point-drift",
                severity=Severity.ERROR,
                location=f"{rel}:{lineno}",
                message=(
                    f"{method!r} contains a wal.append(..., force=True) "
                    f"but is not declared in _FORCE_POINTS — declare it "
                    f"(and audit its callers' send ordering)"
                ),
                anchor=_ANCHOR,
            ))
    return findings


def analyze_flow(root: Path) -> list[Finding]:
    """The force-before-send family: all three rules."""
    findings = analyze_force_before_send(root)
    findings.extend(analyze_rt_gate(root))
    findings.extend(analyze_force_points(root))
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
            send = _extract_send(call, {})
            if send is not None:
                sink.setdefault(send[0], []).append(
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
