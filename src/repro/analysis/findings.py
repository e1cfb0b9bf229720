"""The finding model shared by every ``repro lint`` analyzer.

A :class:`Finding` is one rule violation: a stable rule identifier
(``family/rule-name``), a severity, a location pointer (a source
``file:line``), a human message, and the fact the rule protects (a paper
section, checker replay, ...).

Findings are plain data — analyzers return lists of them, the runner sorts
and renders them — so the same results drive the human output, ``--json``,
and the tests that assert a seeded violation is caught.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


class Severity(enum.Enum):
    """The label a finding renders with; every finding fails the lint."""

    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation discovered statically."""

    #: stable rule id, ``family/rule-name`` (e.g. ``determinism/wall-clock``)
    rule: str
    severity: Severity
    #: ``path:line`` (or ``path:symbol``) of the offending source
    location: str
    message: str
    #: where the violated fact comes from
    anchor: str = ""

    def render(self) -> str:
        """One human-readable line."""
        tail = f"  [{self.anchor}]" if self.anchor else ""
        return (
            f"{self.severity.value.upper():7} {self.rule}  {self.location}\n"
            f"        {self.message}{tail}"
        )


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Deterministic report order: by rule, then location, then message."""
    return sorted(
        findings, key=lambda f: (f.rule, f.location, f.message)
    )
