"""The determinism lint over the protocol/sim/check sources.

The model checker's replay (``repro check --replay``) and the byte-identity
of parallel reports (``--jobs N`` vs ``--jobs 1``) rest on a property
nothing previously enforced: protocol code must take **no input outside
the simulation** — no wall clock, no unseeded randomness, no OS entropy,
and no iteration over unordered containers (string hashing is salted per
process, so bare-set order differs between the workers that must produce
identical shards).

This is an AST pass — nothing is imported or executed — over every module
under ``src/repro/``, with the seeded RNG wrapper (``sim/rng.py``)
allowlisted as the one place the stdlib ``random`` module may appear.

Rules:

``determinism/wall-clock``
    ``time.time``/``time.time_ns``/``time.monotonic``/``datetime.now``-family
    calls.  The only clock protocol code may read is ``Environment.now``.
    (``time.perf_counter`` is tolerated: it feeds wall-budget *accounting*,
    never a schedule.)  The realtime harness's legitimate deadline polling
    carries per-line pragmas.

``determinism/unseeded-random``
    Any use of the stdlib ``random`` module: module-level functions draw
    from the process-global generator, and ``random.Random()`` with no seed
    seeds from the OS.  ``random.Random(seed)`` is tolerated; protocol code
    should use :class:`repro.sim.rng.Rng`.

``determinism/entropy``
    ``os.urandom``, ``uuid.uuid1``/``uuid.uuid4``, or anything from
    ``secrets`` — OS entropy by definition.

``determinism/set-iteration``
    A ``for`` loop or comprehension iterating directly over a set literal
    or a ``set(...)``/``frozenset(...)`` call.  Iteration order of a set is
    salted per process; sort first.

A line ending in ``# lint: allow-nondeterminism`` suppresses its findings
(use sparingly, with a justification in the surrounding comment).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import (
    import_table,
    iter_py_files,
    parse_module,
    resolve_name,
)

_ANCHOR = "checker replay / parallel byte-identity (docs/CHECKER.md)"

PRAGMA = "lint: allow-nondeterminism"

#: files (relative to the scanned root) where stdlib randomness is the point
DEFAULT_ALLOWLIST = frozenset({"sim/rng.py"})

#: resolved dotted name → rule (exact matches)
_FORBIDDEN_EXACT: dict[str, str] = {
    "time.time": "determinism/wall-clock",
    "time.time_ns": "determinism/wall-clock",
    "time.localtime": "determinism/wall-clock",
    "time.gmtime": "determinism/wall-clock",
    "time.ctime": "determinism/wall-clock",
    "time.monotonic": "determinism/wall-clock",
    "time.monotonic_ns": "determinism/wall-clock",
    "datetime.now": "determinism/wall-clock",
    "datetime.utcnow": "determinism/wall-clock",
    "datetime.today": "determinism/wall-clock",
    "datetime.datetime.now": "determinism/wall-clock",
    "datetime.datetime.utcnow": "determinism/wall-clock",
    "datetime.datetime.today": "determinism/wall-clock",
    "datetime.date.today": "determinism/wall-clock",
    "os.urandom": "determinism/entropy",
    "uuid.uuid1": "determinism/entropy",
    "uuid.uuid4": "determinism/entropy",
}

#: resolved dotted-name prefixes → rule
_FORBIDDEN_PREFIX: dict[str, str] = {
    "secrets.": "determinism/entropy",
    "random.": "determinism/unseeded-random",
}


def _match(name: str) -> str | None:
    """The rule a resolved dotted name violates, if any."""
    rule = _FORBIDDEN_EXACT.get(name)
    if rule is not None:
        return rule
    for prefix, prefix_rule in _FORBIDDEN_PREFIX.items():
        if name.startswith(prefix):
            return prefix_rule
    return None


def _is_seeded_random_call(node: ast.AST, name: str) -> bool:
    """``random.Random(seed)`` is deterministic; only the bare call is not."""
    if name != "random.Random":
        return False
    return (
        isinstance(node, ast.Call)
        and bool(node.args or node.keywords)
    )


def _is_bare_set(node: ast.expr) -> bool:
    """A set literal or a direct ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def analyze_file(path: Path, rel: str) -> list[Finding]:
    """Run the determinism rules over one source file."""
    tree = parse_module(path)
    table = import_table(tree)
    lines = path.read_text(encoding="utf-8").splitlines()

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

    # Attribute chains that are the prefix of a longer chain are skipped so
    # ``datetime.datetime.now`` reports once, at the full resolution.
    inner_attrs = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner_attrs:
            name = resolve_name(node, table)
            if name is None:
                continue
            rule = _match(name)
            if rule is None:
                continue
            parent_call = getattr(node, "_repro_call", None)
            if _is_seeded_random_call(parent_call or node, name):
                continue
            add(rule, node.lineno, f"reference to {name}()")
        elif isinstance(node, ast.Call):
            # remember the call so the func attribute can see its arguments
            if isinstance(node.func, ast.Attribute):
                node.func._repro_call = node  # type: ignore[attr-defined]
            elif isinstance(node.func, ast.Name):
                name = resolve_name(node.func, table)
                if name is None:
                    continue
                rule = _match(name)
                if rule is None:
                    continue
                if _is_seeded_random_call(node, name):
                    continue
                add(rule, node.lineno, f"call to {name}()")
        elif isinstance(node, ast.For):
            if _is_bare_set(node.iter):
                add(
                    "determinism/set-iteration", node.lineno,
                    "for-loop over a bare set; iteration order is salted "
                    "per process — sort first",
                )
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                if _is_bare_set(gen.iter):
                    add(
                        "determinism/set-iteration", gen.iter.lineno,
                        "comprehension over a bare set; iteration order is "
                        "salted per process — sort first",
                    )
    return findings


def analyze_tree(
    root: Path, allowlist: frozenset[str] = DEFAULT_ALLOWLIST
) -> list[Finding]:
    """Scan every ``.py`` file under ``root`` (allowlist paths skipped)."""
    findings: list[Finding] = []
    for path in iter_py_files(root):
        rel = path.relative_to(root).as_posix()
        if rel in allowlist:
            continue
        findings.extend(analyze_file(path, rel))
    return findings
