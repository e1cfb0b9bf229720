"""The ``repro lint`` runner: the determinism family over one source tree.

``run_all`` runs the determinism family over the package's own source
tree (or ``--root``) and returns a :class:`LintReport` whose findings are in a
deterministic order.  Rendering is split out so the CLI, the CI job, and
the tests consume the same report object.

This is the repo's first correctness tool that runs with **zero schedules
explored**: everything it checks is a precondition the model checker and
the simulator otherwise only probe dynamically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.determinism import analyze_tree
from repro.analysis.findings import Finding, sort_findings


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    #: what was analyzed, for the report header
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the run produced no findings."""
        return not self.findings


def default_root() -> Path:
    """The installed ``repro`` package directory (the tree to scan)."""
    return Path(__file__).resolve().parent.parent


def run_all(root: Path | None = None) -> LintReport:
    """Run the determinism family; findings come back deterministically
    sorted."""
    scan_root = root if root is not None else default_root()

    findings = analyze_tree(scan_root)
    stats = {"files_scanned": len(list(scan_root.rglob("*.py")))}
    return LintReport(findings=sort_findings(findings), stats=stats)


def render_text(report: LintReport) -> str:
    """The human-readable report."""
    lines = [
        f"repro lint: {report.stats.get('files_scanned', 0)} source files",
    ]
    for finding in report.findings:
        lines.append(finding.render())
    lines.append(
        "no findings" if report.ok
        else f"{len(report.findings)} finding(s)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The machine-readable report (stable key order, deterministic)."""
    payload = {
        "version": 1,
        "ok": report.ok,
        "stats": {k: report.stats[k] for k in sorted(report.stats)},
        "findings": [
            {
                "rule": f.rule,
                "severity": f.severity.value,
                "location": f.location,
                "message": f.message,
                "anchor": f.anchor,
            }
            for f in report.findings
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
