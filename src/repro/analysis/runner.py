"""The ``repro lint`` runner: all four analyzer families over the repo.

``run_all`` assembles the default inputs — the standard repertoire, the
declarative domain scenarios, and the package's own source tree — runs
every analyzer, and returns a :class:`LintReport` whose findings are in a
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

from repro.analysis.blocking import analyze_rt_blocking
from repro.analysis.commute import (
    analyze_matrix,
    analyze_workload_commutativity,
)
from repro.analysis.determinism import analyze_tree
from repro.analysis.flow import analyze_flow, analyze_message_flow
from repro.analysis.dispatch import analyze_dispatch, analyze_engines
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.repertoire import analyze_registry, analyze_workloads
from repro.compensation.actions import standard_registry
from repro.workload.scenarios import standard_scenarios


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    #: what was analyzed, for the report header (counts by input kind)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the run produced no findings."""
        return not self.findings


def default_root() -> Path:
    """The installed ``repro`` package directory (the tree to scan)."""
    return Path(__file__).resolve().parent.parent


def run_all(root: Path | None = None) -> LintReport:
    """Run every analyzer family; findings come back deterministically
    sorted."""
    scan_root = root if root is not None else default_root()
    registry = standard_registry()
    scenarios = standard_scenarios()

    findings: list[Finding] = []
    findings.extend(analyze_registry(registry))
    findings.extend(analyze_workloads(registry, scenarios))
    findings.extend(analyze_matrix(registry))
    findings.extend(analyze_workload_commutativity(registry, scenarios))
    findings.extend(analyze_tree(scan_root))
    findings.extend(analyze_dispatch(scan_root))
    findings.extend(analyze_engines())
    findings.extend(analyze_flow(scan_root))
    findings.extend(analyze_message_flow(scan_root))
    findings.extend(analyze_rt_blocking(scan_root))

    stats = {
        "actions": len(registry.names()),
        "workloads": len(scenarios),
        "transactions": sum(len(specs) for specs in scenarios.values()),
        "files_scanned": len(list(scan_root.rglob("*.py"))),
    }
    return LintReport(findings=sort_findings(findings), stats=stats)


def render_text(report: LintReport) -> str:
    """The human-readable report."""
    stats = report.stats
    lines = [
        f"repro lint: {stats.get('actions', 0)} actions, "
        f"{stats.get('workloads', 0)} workloads "
        f"({stats.get('transactions', 0)} transactions), "
        f"{stats.get('files_scanned', 0)} source files",
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
