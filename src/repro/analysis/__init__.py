"""Static analysis for the protocol kernel (``repro lint``).

O2PC's correctness rests on facts that are checkable *before* any schedule
runs, and this package checks them without executing anything:

* **determinism** (:mod:`repro.analysis.determinism`) — an AST lint
  forbidding wall-clock, unseeded randomness, OS entropy, and bare-set
  iteration in protocol code, protecting checker replay and parallel
  report byte-identity;
* **dispatch exhaustiveness** (:mod:`repro.analysis.dispatch`) — every
  :class:`~repro.net.message.MsgType` has a receiving side among the
  roles the engine registry names;
* **protocol flow** (:mod:`repro.analysis.flow`) — the networked
  runtime writes frames only at the transport's checked write seam, and
  each scheme's role→MsgType→role flow graph is closed (no orphan sends,
  no dead handlers);
* **event-loop blocking** (:mod:`repro.analysis.blocking`) — no sync
  fsync/file-IO/sleep/subprocess reachable from the runtime's
  coroutines and loop callbacks.

Force-before-send itself is not a rule here: both send seams check what
they send against the covering table (:data:`repro.net.message.COVERING`).
The action repertoire's obligations (a predeclared counter-task per
compensatable action, real actions only in lock-holding subtransactions)
are tier-1 tests over the one registry and the shipped scenarios, not
rules here.  See ``docs/ANALYSIS.md`` for each rule and the seeded
mutation that justifies it.
"""

from repro.analysis.blocking import analyze_rt_blocking
from repro.analysis.determinism import analyze_file, analyze_tree
from repro.analysis.dispatch import analyze_dispatch
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.flow import (
    analyze_message_flow,
    analyze_rt_gate,
    build_flow_graphs,
    render_flow_dot,
)
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
    "analyze_dispatch",
    "analyze_file",
    "analyze_message_flow",
    "analyze_rt_blocking",
    "analyze_rt_gate",
    "analyze_tree",
    "build_flow_graphs",
    "default_root",
    "render_flow_dot",
    "render_json",
    "render_text",
    "run_all",
    "sort_findings",
]
