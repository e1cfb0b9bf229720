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

Rule:

``dispatch/missing-handler``
    An enum member no role of any registered engine receives.

A declaration naming a member the enum lacks fails at import
(``AttributeError``) before any rule runs; a member bound twice keeps only
its last handler, which the commit tests catch at once; and a scheme with
no registered engine is ``tests/protocols/test_registry.py``'s subject —
none of them needs a rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import parse_module
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

    Each role chain is read once, however many schemes share it; the
    receivable set is the union of their surfaces.
    """
    message_path = root / "net" / "message.py"
    chains = sorted({
        chain for roles in scheme_roles().values() for chain in roles.values()
    })
    receivable = {
        name for chain in chains for name, _ in receive_surface(root, chain)[1]
    }
    findings: list[Finding] = []
    for name, lineno in enum_members(message_path):
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
