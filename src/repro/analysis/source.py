"""AST plumbing for the determinism lint.

Parsing, deterministic file discovery, and a small import-aware name
resolver: ``resolve_name`` maps an attribute chain or bare name back
to the fully-qualified dotted name it refers to, honoring ``import x as
y`` and ``from x import y as z`` aliases collected from anywhere in the
module (function-local imports included).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.errors import AnalysisError


def parse_module(path: Path) -> ast.Module:
    """Parse one source file; :class:`AnalysisError` if it does not parse."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    try:
        return ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc


def iter_py_files(root: Path) -> list[Path]:
    """Every ``.py`` file under ``root``, in sorted (deterministic) order."""
    return sorted(root.rglob("*.py"))


def import_table(tree: ast.Module) -> dict[str, str]:
    """Map local alias → fully-qualified dotted name for every import.

    ``import time`` → ``{"time": "time"}``; ``import datetime as dt`` →
    ``{"dt": "datetime"}``; ``from datetime import datetime as d`` →
    ``{"d": "datetime.datetime"}``.  Imports are collected from the whole
    tree, so function-local imports resolve too.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never reach stdlib entropy
            for alias in node.names:
                table[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return table


def resolve_name(node: ast.expr, table: dict[str, str]) -> str | None:
    """Resolve an attribute chain / name to its imported dotted name.

    ``dt.now`` with ``import datetime as dt`` → ``datetime.datetime.now``
    is *not* produced (``dt`` maps to ``datetime``, so the result is
    ``datetime.now``) — callers match against every spelling they care
    about.  Returns None for anything that is not a name chain.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(table.get(node.id, node.id))
    return ".".join(reversed(parts))
