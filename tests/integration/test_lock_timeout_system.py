"""Integration: lock-wait timeouts at the system level.

With ``lock_timeout`` configured, a cross-site deadlock resolves in one
lock-timeout period instead of waiting out the coordinator's (much longer)
spawn timeout — and the loser is unwound cleanly.
"""

from repro.commit import CommitConfig, CommitScheme
from repro.harness import System, SystemConfig
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec


def crossing_specs():
    """T1 locks k0@S1 then wants k0@S2; T2 the other way around."""
    t1 = GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [SemanticOp("deposit", "k0", {"amount": 1})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 1})]),
    ])
    # Same key, opposite site order -> distributed deadlock.
    t2 = GlobalTxnSpec(txn_id="T2", subtxns=[
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 1})]),
        SubtxnSpec("S1", [SemanticOp("deposit", "k0", {"amount": 1})]),
    ])
    return t1, t2


def run(lock_timeout):
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC,
        lock_timeout=lock_timeout,
        commit=CommitConfig(spawn_timeout=120.0),
    ))
    t1, t2 = crossing_specs()
    system.submit(t1)

    def late():
        # Staggered: identical timeouts on simultaneous arrivals would
        # abort both (symmetric livelock); offset arrivals give a winner.
        yield system.env.timeout(0.5)
        yield system.submit(t2)

    system.env.process(late())
    system.env.run()
    return system


def test_lock_timeout_resolves_distributed_deadlock_quickly():
    """Timeout resolution is fast but blunt: with symmetric timeouts both
    deadlocked transactions abort (their block times differ by less than
    the abort-propagation delay), yet the system is unwedged within the
    timeout horizon instead of the coordinator's 120-unit spawn timeout,
    and a follow-up transaction sails through."""
    system = run(lock_timeout=10.0)
    assert len(system.outcomes) == 2
    assert max(o.end_time for o in system.outcomes) < 60.0
    # Every lock is free again...
    for site in system.sites.values():
        for txn in ("T1", "T2"):
            assert site.locks.locks_of(txn) == {}
    # ...so a retry succeeds immediately.
    t3 = GlobalTxnSpec(txn_id="T3", subtxns=[
        SubtxnSpec("S1", [SemanticOp("deposit", "k0", {"amount": 1})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 1})]),
    ])
    outcome = system.run_transaction(t3)
    assert outcome.committed
    system.env.run()
    system.check_correctness()


def test_without_lock_timeout_coordinator_timeout_resolves():
    system = run(lock_timeout=None)
    assert len(system.outcomes) == 2
    assert max(o.end_time for o in system.outcomes) > 100.0
    system.check_correctness()


def test_values_consistent_after_timeout_abort():
    system = run(lock_timeout=10.0)
    committed = sum(1 for o in system.outcomes if o.committed)
    total = (
        system.sites["S1"].store.get("k0")
        + system.sites["S2"].store.get("k0")
    )
    assert total == 200 + 2 * committed
