"""Two coordinator-host defects, seeded by monkeypatch: the checker must
find each one with a choice vector that replays.

* *presume abort under PAXOS* — a restarted coordinating site that logged
  no decision aborts instead of asking the acceptors.  In the
  ``crashcoord`` drill the surviving participant has already committed
  through the termination protocol, so the presumed ABORT splits the
  transaction (the atomicity oracle).
* *orphan abort skips a subtransaction still waiting for a lock* — the
  first version of FINDINGS §15's fix aborted, when a coordinator was
  lost, only the subtransactions that had already executed.  One still
  queued for a lock executes later and keeps its locks until the
  coordinating site restarts (the nonblocking oracle).
"""

from repro.check.explorer import CheckConfig, ModelChecker, replay
from repro.check.workloads import Scenario, _submit_delayed
from repro.commit.base import CommitScheme
from repro.commit.coordinator import Coordinator
from repro.commit.host import CoordinatorHost
from repro.net.failures import CrashPlan
from repro.protocols.paxos import PaxosCommitCoordinator
from repro.txn.operations import WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec


def found_and_replayed(config, oracle):
    """The first counterexample names ``oracle``, and its vector replays
    to the same verdicts."""
    report = ModelChecker(config).run()
    assert report.counterexamples, "the seeded defect went unnoticed"
    example = report.counterexamples[0]
    assert oracle in {v.oracle for v in example.violations}
    again = replay(config, example.choices)
    assert again.violations == example.violations
    return report


def _build_orphan(system):
    """T2 (coordinated at S2) holds k0 at S2; T1 (coordinated at S1)
    queues for it there, and S1 crashes while T1 waits."""
    system.failures.schedule(CrashPlan("S1", at=4.0, duration=400.0))
    t1 = GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 1)]),
        SubtxnSpec("S2", [WriteOp("k0", 1)]),
    ])
    t2 = GlobalTxnSpec("T2", [
        SubtxnSpec("S2", [WriteOp("k0", 2)]),
        SubtxnSpec("S3", [WriteOp("k0", 2)]),
    ])
    return [system.submit(t1), _submit_delayed(system, t2, 0.5)]


ORPHAN = Scenario(
    name="orphan",
    description="coordinating site down while its remote subtransaction "
    "waits for a lock",
    n_sites=3,
    txn_ids=("T1", "T2"),
    build=_build_orphan,
)


def first_version(self, txn_ids):
    """Abort only the orphans that have already executed."""
    for txn_id in txn_ids:
        state = self.participant.subtxns.get(txn_id)
        if state is not None and state.executed:
            self.participant.unilateral_abort(txn_id)


class TestPresumeAbortUnderPaxos:
    CONFIG = CheckConfig(
        scenario="crashcoord", protocol="none", scheme=CommitScheme.PAXOS,
        depth=4, max_schedules=10,
    )

    def test_the_shipped_host_asks_the_acceptors(self):
        assert ModelChecker(self.CONFIG).run().ok

    def test_the_checker_finds_it(self, monkeypatch):
        monkeypatch.setattr(
            PaxosCommitCoordinator, "recover_decision",
            Coordinator.recover_decision,
        )
        report = found_and_replayed(self.CONFIG, "atomicity")
        details = [
            v.detail for v in report.counterexamples[0].violations
        ]
        assert "T1 aborted globally but committed at S2" in details


class TestOrphanStillWaitingForALock:
    CONFIG = CheckConfig(
        scenario=ORPHAN, protocol="none", scheme=CommitScheme.O2PC,
        depth=4, max_schedules=10,
    )

    def test_the_shipped_host_waits_then_aborts(self):
        report = ModelChecker(self.CONFIG).run()
        assert report.ok, report.counterexamples[0].violations

    def test_the_checker_finds_it(self, monkeypatch):
        monkeypatch.setattr(CoordinatorHost, "orphaned", first_version)
        report = found_and_replayed(self.CONFIG, "nonblocking")
        detail = report.counterexamples[0].violations[0].detail
        assert detail.startswith("S2 held k0 for T1, which it never voted on")
