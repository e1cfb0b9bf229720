"""Integration tests: O2PC happy path and abort-with-compensation."""

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.locking import LockMode
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec, VotePolicy, WriteOp
from repro.txn.transaction import TxnStatus


def transfer_spec(txn_id="T1", amount=25, vote_s2=VotePolicy.AUTO):
    """Move `amount` from k0@S1 to k0@S2 (restricted model)."""
    return GlobalTxnSpec(txn_id=txn_id, subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": amount})]),
        SubtxnSpec(
            "S2", [SemanticOp("deposit", "k0", {"amount": amount})],
            vote=vote_s2,
        ),
    ])


def test_o2pc_commit_applies_updates_everywhere():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    outcome = system.run_transaction(transfer_spec())
    assert outcome.committed
    assert system.sites["S1"].store.get("k0") == 75
    assert system.sites["S2"].store.get("k0") == 125
    assert outcome.compensated_sites == ()
    assert outcome.latency > 0


def test_o2pc_releases_locks_at_vote_not_decision():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    outcome = system.run_transaction(transfer_spec())
    assert outcome.committed
    for sid in ("S1", "S2"):
        holds = [
            h for h in system.sites[sid].locks.hold_log if h.txn_id == "T1"
        ]
        assert holds, f"no hold records at {sid}"
        # Locks were released strictly before the decision reached the site
        # (the decision needs one more message hop after decision_time).
        for hold in holds:
            assert hold.released_at <= outcome.decision_time


def test_2pl_holds_locks_until_decision():
    system = System(SystemConfig(scheme=CommitScheme.TWO_PL))
    outcome = system.run_transaction(transfer_spec())
    assert outcome.committed
    for sid in ("S1", "S2"):
        holds = [
            h for h in system.sites[sid].locks.hold_log if h.txn_id == "T1"
        ]
        for hold in holds:
            # Released only after the decision message arrived (one hop
            # after the coordinator decided).
            assert hold.released_at > outcome.decision_time


def test_o2pc_lock_holds_shorter_than_2pl():
    def run(scheme):
        system = System(SystemConfig(scheme=scheme))
        system.run_transaction(transfer_spec())
        return max(
            h.released_at - h.granted_at
            for site in system.sites.values()
            for h in site.locks.hold_log
        )

    assert run(CommitScheme.O2PC) < run(CommitScheme.TWO_PL)


def test_o2pc_abort_compensates_locally_committed_sites():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    outcome = system.run_transaction(
        transfer_spec(vote_s2=VotePolicy.FORCE_NO)
    )
    assert not outcome.committed
    assert outcome.no_votes == ["S2"]
    # S1 locally committed, then compensated: balance restored.
    assert outcome.compensated_sites == ["S1"]
    assert system.sites["S1"].store.get("k0") == 100
    # S2 voted NO and rolled back before exposing anything.
    assert system.sites["S2"].store.get("k0") == 100
    assert system.sites["S1"].ltm.status["T1"] is TxnStatus.COMPENSATED


def test_o2pc_abort_history_records_compensations():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    system.run_transaction(transfer_spec(vote_s2=VotePolicy.FORCE_NO))
    s1 = system.sites["S1"].history
    s2 = system.sites["S2"].history
    assert "CT1" in s1.committed  # real compensating subtransaction
    assert "CT1" in s2.committed  # degenerate CT (roll-back)
    assert "T1" in s2.aborted
    # Semantic atomicity: every site either committed-or-compensated.
    sg = system.global_sg()
    assert sg.locals["S1"].has_edge("T1", "CT1")


def test_o2pc_run_is_correct_per_paper_criterion():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    system.run_transaction(transfer_spec(vote_s2=VotePolicy.FORCE_NO))
    system.check_correctness()


def test_2pl_abort_rolls_back_without_compensation():
    system = System(SystemConfig(scheme=CommitScheme.TWO_PL))
    outcome = system.run_transaction(
        transfer_spec(vote_s2=VotePolicy.FORCE_NO)
    )
    assert not outcome.committed
    assert outcome.compensated_sites == ()
    assert system.sites["S1"].store.get("k0") == 100
    assert system.sites["S2"].store.get("k0") == 100
    # No compensation executor activity under 2PL.
    for participant in system.participants.values():
        assert participant.compensator.stats.started == 0


def test_generic_model_write_ops_commit():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    spec = GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [WriteOp("k1", "alpha")]),
        SubtxnSpec("S3", [WriteOp("k2", "beta")]),
    ])
    outcome = system.run_transaction(spec)
    assert outcome.committed
    assert system.sites["S1"].store.get("k1") == "alpha"
    assert system.sites["S3"].store.get("k2") == "beta"


def test_generic_model_abort_restores_before_images():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    spec = GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [WriteOp("k1", "dirty")]),
        SubtxnSpec("S3", [WriteOp("k2", "dirty")], vote=VotePolicy.FORCE_NO),
    ])
    outcome = system.run_transaction(spec)
    assert not outcome.committed
    assert system.sites["S1"].store.get("k1") == 100
    assert system.sites["S3"].store.get("k2") == 100


def test_concurrent_transfers_disjoint_keys_commit():
    system = System(SystemConfig(scheme=CommitScheme.O2PC, n_sites=4))
    specs = [
        GlobalTxnSpec(txn_id=f"T{i}", subtxns=[
            SubtxnSpec("S1", [SemanticOp("withdraw", f"k{i}", {"amount": 5})]),
            SubtxnSpec("S2", [SemanticOp("deposit", f"k{i}", {"amount": 5})]),
        ])
        for i in range(1, 6)
    ]
    for spec in specs:
        system.submit(spec)
    system.env.run()
    assert len(system.outcomes) == 5
    assert all(o.committed for o in system.outcomes)
    for i in range(1, 6):
        assert system.sites["S1"].store.get(f"k{i}") == 95
        assert system.sites["S2"].store.get(f"k{i}") == 105
    system.check_correctness()
