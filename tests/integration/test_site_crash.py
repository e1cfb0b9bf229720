"""Integration: participant (site) crash and log-based recovery.

Covers both halves of the paper's durability story:

* a 2PL participant that crashes *after* voting YES is in doubt on
  restart: it re-acquires the transaction's locks from the log and blocks
  until the coordinator's retransmitted decision arrives (2PC's blocking
  problem surviving even the crash);
* an O2PC participant that crashes after locally committing finds the
  updates redone from the LOCAL_COMMIT record and simply awaits the
  decision, compensating on ABORT as usual.
"""

from repro.commit import CommitScheme
from repro.commit.base import CommitConfig
from repro.harness import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.storage.wal import RecordType
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec


def spec(txn_id="T1"):
    # S2 first: the coordinator lives at S2, so crashing S1 crashes a
    # participant only.
    return GlobalTxnSpec(txn_id=txn_id, subtxns=[
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 10})]),
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 10})]),
    ])


def quick_retry_config():
    return CommitConfig(ack_timeout=30.0, decision_retries=3)


def run_with_participant_crash(scheme, crash_at=5.6, down_for=40.0):
    """Crash S1 right after it votes (t=5) and recover it later."""
    system = System(SystemConfig(
        scheme=scheme, commit=quick_retry_config(),
    ))
    proc = system.submit(spec())
    system.failures.schedule(
        CrashPlan(site_id="S1", at=crash_at, duration=down_for)
    )
    outcome = system.env.run(proc)
    system.env.run()
    return system, outcome


def test_2pl_in_doubt_participant_recovers_and_commits():
    system, outcome = run_with_participant_crash(CommitScheme.TWO_PL)
    assert outcome.committed
    # The decision reached S1 only via retransmission after recovery.
    assert system.sites["S1"].wal.status_of("T1") is RecordType.COMMIT
    # The redo applied the update despite the crash wiping the store.
    assert system.sites["S1"].store.get("k0") == 90
    assert system.sites["S2"].store.get("k0") == 110


def test_2pl_recovered_participant_holds_locks_until_decision():
    system = System(SystemConfig(
        scheme=CommitScheme.TWO_PL, commit=quick_retry_config(),
    ))
    system.submit(spec())
    system.failures.schedule(CrashPlan(site_id="S1", at=5.6, duration=40.0))
    observed = {}

    def probe():
        # Shortly after recovery (t=45.6) the in-doubt transaction must be
        # holding its lock again, before any decision could have arrived.
        yield system.env.timeout(46.0)
        observed["holder"] = system.sites["S1"].locks.holders("k0")

    system.env.process(probe())
    system.env.run()
    assert "T1" in observed["holder"]


def test_o2pc_locally_committed_survives_crash_and_commits():
    system, outcome = run_with_participant_crash(CommitScheme.O2PC)
    assert outcome.committed
    assert system.sites["S1"].store.get("k0") == 90
    assert system.sites["S1"].wal.status_of("T1") is RecordType.COMMIT


def test_o2pc_locally_committed_crash_then_abort_compensates():
    from repro.txn.transaction import VotePolicy

    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, commit=quick_retry_config(),
    ))
    bad = GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 10})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 10})],
                   vote=VotePolicy.FORCE_NO),
    ])
    proc = system.submit(bad)
    # S1 votes YES (locally commits) at t=5, then crashes before the abort
    # decision arrives; after recovery the retransmitted ABORT triggers the
    # compensation built from the log's before-images.
    system.failures.schedule(CrashPlan(site_id="S1", at=5.6, duration=40.0))
    outcome = system.env.run(proc)
    system.env.run()
    assert not outcome.committed
    assert system.sites["S1"].store.get("k0") == 100
    assert "CT1" in system.sites["S1"].history.committed


def test_crash_before_vote_aborts_transaction():
    """A site that crashes mid-execution never votes; the coordinator's
    vote timeout aborts the transaction and the survivor rolls back."""
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC,
        commit=CommitConfig(vote_timeout=30.0, ack_timeout=30.0,
                            spawn_timeout=30.0, decision_retries=3),
    ))
    proc = system.submit(spec())
    system.failures.schedule(CrashPlan(site_id="S2", at=2.5, duration=50.0))
    outcome = system.env.run(proc)
    system.env.run()
    assert not outcome.committed
    assert system.sites["S1"].store.get("k0") == 100


def test_unrelated_transactions_proceed_during_outage():
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, n_sites=3, commit=quick_retry_config(),
    ))
    system.failures.schedule(CrashPlan(site_id="S1", at=1.0, duration=100.0))

    def late():
        yield system.env.timeout(5.0)
        result = yield system.submit(GlobalTxnSpec(txn_id="T2", subtxns=[
            SubtxnSpec("S2", [SemanticOp("deposit", "k1", {"amount": 1})]),
            SubtxnSpec("S3", [SemanticOp("withdraw", "k1", {"amount": 1})]),
        ]))
        return result

    outcome = system.env.run(system.env.process(late()))
    assert outcome.committed
    assert outcome.end_time < 30.0
