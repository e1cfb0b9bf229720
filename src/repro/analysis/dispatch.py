"""Family 2: handler exhaustiveness over the wire vocabulary.

Every :class:`~repro.net.message.MsgType` must have a receiving side: some
role of some registered engine must declare it in its dispatch table
(``_HANDLERS``, bound by the participant's and acceptor's dispatch loops)
or its collect surface (``_COLLECTS``, asserted by every coordinator
``_collect``).  Both are class-level literals the runtime actually binds,
and which classes play which role is read off the engine registry
(:data:`repro.protocols.ENGINES`, see :func:`scheme_roles`) — so this
check reads the single source of truth, statically.

A message type outside every surface would be *silently dropped* by the
dispatch loops, which is exactly how a protocol extension (say, a
termination-protocol inquiry round) rots: the sender compiles, the
receiver ignores, and only a timeout-shaped symptom remains.

Rules:

``dispatch/missing-handler``
    An enum member no role of any registered engine receives.

``dispatch/unknown-msg-type``
    A dispatch declaration references an enum member that does not exist.

``dispatch/duplicate-handler``
    The same member appears twice in one declaration.

``dispatch/missing-engine``
    A :class:`~repro.commit.base.CommitScheme` member has no engine
    registered in :mod:`repro.protocols` — a scheme added to the enum but
    not to the registry would pass configuration validation and then crash
    (or worse, silently fall back) at system construction.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import parse_module
from repro.commit.base import CommitScheme
from repro.errors import AnalysisError
from repro.protocols import ENGINES

_ANCHOR = "Section 2 (2PC message vocabulary)"

#: one role's classes as (file relative to the package root, class name),
#: subclass first
Chain = tuple[tuple[str, str], ...]


def _class_body(tree: ast.Module, class_name: str, path: Path) -> ast.ClassDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node
    raise AnalysisError(f"class {class_name} not found in {path}")


def enum_members(message_path: Path) -> list[tuple[str, int]]:
    """``MsgType`` member names (with line numbers), read from the AST."""
    tree = parse_module(message_path)
    cls = _class_body(tree, "MsgType", message_path)
    members: list[tuple[str, int]] = []
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    members.append((target.id, stmt.lineno))
    return members


def _msgtype_keys(nodes: list[ast.expr]) -> list[tuple[str, int]]:
    """``MsgType.X`` attribute references among ``nodes``."""
    keys: list[tuple[str, int]] = []
    for node in nodes:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "MsgType"
        ):
            keys.append((node.attr, node.lineno))
    return keys


def _declaration(
    path: Path, class_name: str, attr_name: str
) -> list[tuple[str, int]] | None:
    """The ``MsgType`` members declared in a class-level dict/tuple literal
    (None: the class body does not assign ``attr_name``)."""
    tree = parse_module(path)
    cls = _class_body(tree, class_name, path)
    for stmt in cls.body:
        value: ast.expr | None = None
        if isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == attr_name
            ):
                value = stmt.value
        elif isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == attr_name
                for t in stmt.targets
            ):
                value = stmt.value
        if value is None:
            continue
        if isinstance(value, ast.Dict):
            return _msgtype_keys([k for k in value.keys if k is not None])
        if isinstance(value, (ast.Tuple, ast.List)):
            return _msgtype_keys(list(value.elts))
        raise AnalysisError(
            f"{class_name}.{attr_name} in {path} is not a literal "
            f"dict/tuple"
        )
    return None


def class_rel(cls: type[object]) -> str:
    """The file defining ``cls``, relative to the package root."""
    return cls.__module__.partition(".")[2].replace(".", "/") + ".py"


def scheme_roles() -> dict[str, dict[str, Chain]]:
    """Per scheme, each role's class chain, read off the engine registry.

    A chain is the role class's MRO restricted to this package, subclass
    first; the acceptor role exists only where the engine names one.  The
    classes come from the running registry, their ASTs from whatever root
    the caller scans.
    """
    roles: dict[str, dict[str, Chain]] = {}
    for scheme, engine in sorted(ENGINES.items(), key=lambda kv: kv[0].name):
        classes: dict[str, type[object]] = {
            "coordinator": engine.coordinator,
            "participant": engine.participant,
        }
        if engine.acceptor is not None:
            classes["acceptor"] = engine.acceptor
        roles[scheme.name] = {
            role: tuple(
                (class_rel(c), c.__name__) for c in cls.__mro__
                if c.__module__.partition(".")[0] == "repro"
            )
            for role, cls in classes.items()
        }
    return roles


def receive_surface(
    root: Path, chain: Chain
) -> tuple[tuple[str, str], list[tuple[str, int]]]:
    """A role's receive surface, resolved like the attribute lookup the
    dispatch loops do: the first ``_HANDLERS`` or ``_COLLECTS`` literal up
    ``chain``, with the ``(rel, class)`` that declares it."""
    for rel, class_name in chain:
        for attr in ("_HANDLERS", "_COLLECTS"):
            declared = _declaration(root / rel, class_name, attr)
            if declared is not None:
                return (rel, class_name), declared
    raise AnalysisError(
        f"no _HANDLERS/_COLLECTS declaration found up the chain "
        f"{[class_name for _rel, class_name in chain]} under {root}"
    )


def analyze_dispatch(root: Path) -> list[Finding]:
    """Exhaustiveness of every registered engine's receive surfaces.

    Each role's surface is checked once for unknown members and
    duplicates, however many schemes share it; the receivable set is
    their union.
    """
    message_path = root / "net" / "message.py"
    members = enum_members(message_path)
    member_names = {name for name, _ in members}
    surfaces = dict(
        receive_surface(root, chain)
        for roles in scheme_roles().values()
        for chain in roles.values()
    )

    findings: list[Finding] = []
    for (rel, _class_name), declared in sorted(surfaces.items()):
        seen: set[str] = set()
        for name, lineno in declared:
            location = f"{rel}:{lineno}"
            if name not in member_names:
                findings.append(Finding(
                    rule="dispatch/unknown-msg-type",
                    severity=Severity.ERROR,
                    location=location,
                    message=(
                        f"declaration references MsgType.{name}, which is "
                        f"not an enum member"
                    ),
                    anchor=_ANCHOR,
                ))
            if name in seen:
                findings.append(Finding(
                    rule="dispatch/duplicate-handler",
                    severity=Severity.ERROR,
                    location=location,
                    message=f"MsgType.{name} is declared twice",
                    anchor=_ANCHOR,
                ))
            seen.add(name)

    receivable = {
        name for declared in surfaces.values() for name, _ in declared
    }
    for name, lineno in members:
        if name not in receivable:
            findings.append(Finding(
                rule="dispatch/missing-handler",
                severity=Severity.ERROR,
                location=f"{message_path.name}:{lineno}",
                message=(
                    f"MsgType.{name} has no participant handler and no "
                    f"coordinator collect — a message of this type would "
                    f"be silently dropped"
                ),
                anchor=_ANCHOR,
            ))
    return findings


def analyze_engines() -> list[Finding]:
    """Every :class:`CommitScheme` member has a registered engine.

    The registry *is* runtime state (populated by module import), and
    importing it is exactly what the harness does — so a member missing
    here is a member the harness cannot construct.
    """
    findings: list[Finding] = []
    for scheme in CommitScheme:
        if scheme not in ENGINES:
            findings.append(Finding(
                rule="dispatch/missing-engine",
                severity=Severity.ERROR,
                location=f"base.py:CommitScheme.{scheme.name}",
                message=(
                    f"CommitScheme.{scheme.name} has no engine registered "
                    f"in repro.protocols — the harness cannot construct a "
                    f"system for it"
                ),
                anchor=_ANCHOR,
            ))
    return findings
