"""Every script in ``examples/`` runs to completion and tells its story.

Each example runs in its own interpreter, exactly as its docstring says
(``python3 examples/<name>.py``), so a script's global registrations
cannot leak into the rest of the suite.  The narrated walk-throughs are
the examples' job alone (there is no CLI verb for them), so the
assertions below pin what each one must show.
"""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@functools.cache
def run_example(name: str) -> str:
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "name", sorted(path.name for path in EXAMPLES.glob("*.py")),
)
def test_example_runs(name):
    assert run_example(name).strip()


def test_quickstart_commits_then_compensates():
    out = run_example("quickstart.py")
    assert "T1 (transfer 30 from S1 to S2): COMMITTED" in out
    assert "S3 refuses): ABORTED" in out
    assert "S1.k0 = 70 (the 50 came back)" in out
    assert "correctness criterion: OK" in out
    assert "transactions  t=" in out  # the timeline


def test_failure_drill_shows_both_schemes():
    out = run_example("failure_drill.py")
    assert "=== 2PL ===" in out and "=== O2PC ===" in out
    assert out.count("locks at S2") == 2


def test_correctness_audit_cycle_under_none_and_not_under_p1():
    out = run_example("correctness_audit.py")
    unprotected, protected = out.split("=== O2PC + protocol P1 ===")
    assert "=== O2PC + protocol none ===" in unprotected
    assert "regular cycle: T2 -> CT1 -> T2  (INCORRECT history)" in unprotected
    assert "segment by segment" in unprotected
    assert "no regular cycle (criterion holds)" in protected
    for section in (unprotected, protected):
        assert "marking transitions" in section
