"""Static analysis for the protocol kernel (``repro lint``).

O2PC's correctness rests on facts that are checkable *before* any schedule
runs, and this package checks one family of them from the source files
alone, without importing or executing the code it scans: **determinism**
(:mod:`repro.analysis.determinism`), an AST lint forbidding wall-clock,
unseeded randomness, OS entropy, and bare-set iteration in protocol
code, protecting checker replay and parallel report byte-identity.

The networked runtime's obligations are checked on the code that runs:
the test suite's loop guard (``tests/loop_guard.py``) records every
blocking call made on a daemon's event loop and every socket write that
bypasses ``TcpTransport._write``.  Force-before-send itself is not a rule
here either: both send seams check what they send against the covering
table (:data:`repro.net.message.COVERING`).
Nor is the message vocabulary: ``tests/protocols/test_message_flow.py``
records the messages each registered engine actually sends and checks
them against the receive surfaces it declares.  The action repertoire's
obligations (a predeclared counter-task per compensatable action, real
actions only in lock-holding subtransactions) are tier-1 tests over the
one registry and the shipped scenarios, not rules here.  See
``docs/ANALYSIS.md`` for each rule and the seeded mutation that
justifies it.
"""

from repro.analysis.determinism import analyze_file, analyze_tree
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.runner import (
    LintReport,
    default_root,
    render_json,
    render_text,
    run_all,
)

__all__ = [
    "Finding",
    "LintReport",
    "Severity",
    "analyze_file",
    "analyze_tree",
    "default_root",
    "render_json",
    "render_text",
    "run_all",
    "sort_findings",
]
