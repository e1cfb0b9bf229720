"""Integration: lossy networks.

With a nonzero per-message loss probability, transactions still terminate
(timeouts convert missing messages into aborts; retransmission rounds
deliver late decisions) and the system's invariants hold: no zombie lock
holders, conserved balances, a correct history.
"""

from repro.commit import CommitConfig, CommitScheme
from repro.harness import System, SystemConfig
from repro.storage.wal import RecordType
from repro.txn.transaction import TxnStatus
from repro.workload import WorkloadConfig, WorkloadGenerator


def run_lossy(loss, seed=1, n_txns=30):
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC,
        n_sites=3,
        message_loss=loss,
        seed=seed,
        commit=CommitConfig(
            spawn_timeout=25.0, vote_timeout=25.0, ack_timeout=25.0,
            decision_retries=3,
        ),
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=n_txns, arrival_mean=4.0, read_fraction=0.5,
    ), seed=seed)
    elapsed = gen.run()
    return system, system.metrics(elapsed)


def assert_no_zombie_locks(system):
    for site in system.sites.values():
        for txn, status in site.ltm.status.items():
            if status in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
                assert site.locks.locks_of(txn) == {}, (
                    f"{txn} still holds locks at {site.site_id}"
                )


def test_all_transactions_terminate_under_loss():
    system, report = run_lossy(loss=0.05)
    assert report.committed + report.aborted == 30
    assert report.committed > 0


def test_loss_causes_aborts_but_not_corruption():
    system, report = run_lossy(loss=0.15, seed=2)
    assert report.committed + report.aborted == 30
    assert_no_zombie_locks(system)
    system.check_correctness()


def test_dropped_messages_are_counted():
    system, _ = run_lossy(loss=0.15, seed=3)
    assert sum(system.network.dropped.values()) > 0


def test_higher_loss_lowers_commit_rate():
    _, clean = run_lossy(loss=0.0, seed=4)
    _, lossy = run_lossy(loss=0.25, seed=4)
    assert lossy.committed < clean.committed
    assert clean.committed == 30


def test_balances_consistent_despite_loss():
    """Every committed transaction's effects are fully applied; every
    aborted one's are fully revoked — even when decisions needed
    retransmission."""
    system, report = run_lossy(loss=0.1, seed=5)
    system.env.run()
    for outcome in system.outcomes:
        for sub in system.specs[outcome.txn_id].subtxns:
            # the log's outcome: a checkpoint may have settled the id
            status = system.sites[sub.site_id].wal.status_of(outcome.txn_id)
            if outcome.committed:
                assert status is RecordType.COMMIT, (
                    f"{outcome.txn_id} at {sub.site_id}: {status}"
                )
            else:
                assert status in (
                    None, RecordType.ABORT,
                    # a decision lost to all retransmission rounds can leave
                    # a locally-committed participant awaiting resolution -
                    # blocked-free but undecided (2PC's residual window)
                    RecordType.LOCAL_COMMIT,
                ), f"{outcome.txn_id} at {sub.site_id}: {status}"
