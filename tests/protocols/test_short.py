"""Short-Commit on the simulated substrate.

The scheme's three defining behaviors, each pinned by keeping ``T1``'s
decision from ``S1`` over the decision window so a successor can reach the
exposed data there.  ``T1``'s coordinator lives at its first site ``S2``;
the window is a cut link from it to ``S1`` (the decision arrives late), or
a crash of ``S2`` before the decision is logged (the restarted ``S2``
presumes abort):

* early release — a successor writes an exposer's key *before* the
  exposer's decision, recording a commit dependency instead of blocking;
* cascade abort — the exposer's ABORT rolls the successor back too (undo
  chains unwind dependents first, restoring the original before-images);
* dependency timeout — a dependency still undecided at the deadline makes
  the dependent vote NO rather than wait forever.
"""

from repro.commit.base import CommitConfig, CommitScheme
from repro.harness.system import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.net.network import LatencyModel
from repro.txn.operations import WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, VotePolicy

COMMIT = CommitConfig(
    spawn_timeout=30.0,
    spawn_retry_delay=2.0,
    max_spawn_retries=10,
    vote_timeout=30.0,
    ack_timeout=15.0,
    decision_retries=5,
    decision_log_delay=0.5,
    sequential_spawn=True,
    paxos_acceptors=3,
    paxos_decision_timeout=10.0,
    short_dependency_timeout=25.0,
)

#: T1's votes land by ~6 (unit latency, sequential spawn); the decision
#: goes out at ~6.5 after the 0.5 force-log delay — 6.2 is inside the
#: window where S1 has exposed its update but the outcome is unknown
CRASH_AT = 6.2


def make_system():
    return System(SystemConfig(
        n_sites=3, scheme=CommitScheme.SHORT, protocol="none", seed=0,
        latency=LatencyModel(base=1.0, jitter=0.0), commit=COMMIT,
    ))


def submit_after(system, spec, delay):
    def runner():
        yield system.env.timeout(delay)
        outcome = yield system.submit(spec)
        return outcome

    return system.env.process(runner(), name=f"submit:{spec.txn_id}")


def t1(vote=VotePolicy.AUTO):
    # S2 first: T1's coordinator lives at S2, not at the exposing S1.
    return GlobalTxnSpec("T1", [
        SubtxnSpec("S2", [WriteOp("k1", 11)], vote=vote),
        SubtxnSpec("S1", [WriteOp("k0", 11)]),
    ])


def t2():
    # Overlaps T1 on k0 at S1 only, and stays clear of T1's S2.
    return GlobalTxnSpec("T2", [
        SubtxnSpec("S1", [WriteOp("k0", 22)]),
        SubtxnSpec("S3", [WriteOp("k5", 22)]),
    ])


def hold_decision(system, duration):
    """Cut the link from T1's coordinator to S1 at ``CRASH_AT`` for
    ``duration``: S1's DECISION is lost, and a retransmission after the
    window delivers it."""

    def cut():
        yield system.env.timeout(CRASH_AT)
        system.network.sever("coord.T1", "S1", bidirectional=False)
        yield system.env.timeout(duration)
        system.network.heal("coord.T1", "S1", bidirectional=False)

    system.env.process(cut(), name="hold-decision")


def outcome_of(system, txn_id):
    return next(o for o in system.outcomes if o.txn_id == txn_id)


class TestEarlyRelease:
    def test_successor_writes_exposed_key_and_records_dependency(self):
        system = make_system()
        # Hold T1 undecided at S1 for 10 units: S1 votes YES at ~5,
        # releases its locks, and exposes k0 while the outcome is open.
        hold_decision(system, 10.0)
        system.submit(t1())
        submit_after(system, t2(), 8.0)

        system.env.run(until=12.0)
        participant = system.participants["S1"]
        t1_state = participant.subtxns["T1"]
        t2_state = participant.subtxns["T2"]
        # Mid-window: T1 voted but is undecided, yet T2 already executed
        # over its exposed key — under 2PC/Paxos T2 would still be queued
        # on the k0 lock here.
        assert t1_state.voted == "YES" and t1_state.decided is None
        assert t2_state.executed
        assert participant._deps["T2"] == {"T1"}
        assert participant._exposed_by["k0"] == "T1"

        system.env.run()
        assert outcome_of(system, "T1").committed
        assert outcome_of(system, "T2").committed
        # T2 overwrote last; all exposure bookkeeping drained.
        assert system.sites["S1"].store.get_or("k0", None) == 22
        assert participant._deps == {}
        assert participant._exposed_by == {}


class TestCascadeAbort:
    def test_exposer_abort_cascades_and_restores_before_images(self):
        system = make_system()
        system.failures.schedule(
            CrashPlan("S2", at=CRASH_AT, duration=10.0)
        )
        system.submit(t1(vote=VotePolicy.FORCE_NO))
        submit_after(system, t2(), 8.0)
        system.env.run()

        assert not outcome_of(system, "T1").committed
        # No compensation anywhere: Short-Commit's whole trade.
        assert outcome_of(system, "T1").compensated_sites == ()
        assert not outcome_of(system, "T2").committed
        participant = system.participants["S1"]
        assert "T2" in participant._cascade_aborted
        # Undo order mattered: T2's rollback re-installed T1's value,
        # T1's rollback then restored the original.
        assert system.sites["S1"].store.get_or("k0", None) == 100
        assert system.sites["S2"].store.get_or("k1", None) == 100


class TestDependencyTimeout:
    def test_unresolved_dependency_times_out_into_a_no_vote(self):
        system = make_system()
        # T1's coordinating site stays down past T2's dependency deadline
        # (gate opens ~13, timeout 25 → NO at ~38, long before t≈406).
        system.failures.schedule(
            CrashPlan("S2", at=CRASH_AT, duration=400.0)
        )
        system.submit(t1())
        submit_after(system, t2(), 8.0)
        system.env.run()

        # No DECIDE was logged before the crash: presumed abort.
        assert not outcome_of(system, "T1").committed
        assert not outcome_of(system, "T2").committed
        participant = system.participants["S1"]
        assert participant.subtxns["T2"].voted == "NO"
        # T2's rollback happened before T1 decided (it re-installed T1's
        # exposed write); T1's late ABORT then restored the original.
        assert participant.subtxns["T1"].decided_at > 400.0
        assert system.sites["S1"].store.get_or("k0", None) == 100
