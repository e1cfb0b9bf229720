"""CLAIM-DEADLOCK — marking-set contention (Section 6.2 remark).

Storing the marking sets as lockable database items produces the deadlock
the paper describes (R1 reader of ``sitemarks.k`` vs. compensating
subtransaction holding data and requesting the marking set); the paper's
"acceptable compromise" (check first, unlock immediately, re-validate at
vote) avoids it.  Persistence of compensation holds in both modes.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import ExperimentResult, System, SystemConfig, format_table
from repro.txn import GlobalTxnSpec, ReadOp, SubtxnSpec, VotePolicy, WriteOp


def run_once(lock_marks: bool):
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, protocol="P1", n_sites=3,
        lock_marks=lock_marks, op_duration=1.0,
    ))
    system.submit(GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [WriteOp("k0", "T1")]),
        SubtxnSpec("S2", [WriteOp("k0", "T1")], vote=VotePolicy.FORCE_NO),
    ]))

    def submit_t2():
        yield system.env.timeout(7.5)
        yield system.submit(GlobalTxnSpec(txn_id="T2", subtxns=[
            SubtxnSpec("S1", [ReadOp("k1"), ReadOp("k2"), ReadOp("k0")]),
            SubtxnSpec("S3", [ReadOp("k1")]),
        ]))

    system.env.process(submit_t2())
    system.env.run()
    return system


@pytest.fixture(scope="module")
def deadlock_rows():
    rows = []
    for lock_marks in (True, False):
        system = run_once(lock_marks)
        deadlocks = sum(
            len(site.locks.detector.detected)
            for site in system.sites.values()
        )
        completed = sum(
            p.compensator.stats.completed
            for p in system.participants.values()
        )
        retries = sum(
            p.compensator.stats.retries
            for p in system.participants.values()
        )
        system.check_correctness()
        rows.append(ExperimentResult(
            params={"mode": "locked marks" if lock_marks else "compromise"},
            measures={
                "deadlocks": deadlocks,
                "compensations": completed,
                "comp_retries": retries,
                "k0@S1": system.sites["S1"].store.get("k0"),
            },
        ))
    return rows


def test_deadlock_table(deadlock_rows):
    print()
    print(format_table(
        deadlock_rows,
        title="CLAIM-DEADLOCK: marking-set locking vs the compromise",
        precision=0,
    ))


def test_locked_marks_mode_deadlocks(deadlock_rows):
    assert deadlock_rows[0].measures["deadlocks"] >= 1


def test_compromise_mode_does_not(deadlock_rows):
    assert deadlock_rows[1].measures["deadlocks"] == 0


def test_compensation_persists_in_both_modes(deadlock_rows):
    for row in deadlock_rows:
        assert row.measures["compensations"] >= 1
        assert row.measures["k0@S1"] == 100
