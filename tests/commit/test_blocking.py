"""Integration tests: coordinator failure and the blocking problem.

The paper's motivation (Section 1): under 2PC+2PL a participant that voted
YES is blocked — holding locks — until the coordinator's decision arrives,
so a coordinator crash stalls the site's data for the whole outage.  Under
O2PC the locks were released at vote time, so the outage is invisible to
other transactions.

The coordinator lives in its transaction's first site, S1, and dies with
it: the outage is S1's, blocking is measured at the surviving participant
S2, and with no decision logged before the crash the restarted S1 presumes
abort.
"""

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec


def spec(txn_id="T1"):
    return GlobalTxnSpec(txn_id=txn_id, subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 10})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 10})]),
    ])


def run_with_coordinator_outage(scheme, outage=100.0):
    """Crash the coordinating site after votes are cast; return (system,
    outcome)."""
    system = System(SystemConfig(scheme=scheme))
    proc = system.submit(spec())
    # With base latency 1 and sequential spawn, votes reach the coordinator
    # at t=6 and the decision record is forced at t=6.5: crash inside that
    # window — votes received, decision not yet logged.
    system.failures.schedule(
        CrashPlan(site_id="S1", at=6.2, duration=outage)
    )
    outcome = system.env.run(proc)
    return system, outcome


def max_hold(system, txn_id="T1"):
    """T1's longest lock hold at the surviving participant S2."""
    return max(
        h.duration
        for h in system.sites["S2"].locks.hold_log
        if h.txn_id == txn_id
    )


def test_2pl_participants_blocked_for_whole_outage():
    system, outcome = run_with_coordinator_outage(CommitScheme.TWO_PL, 100.0)
    assert not outcome.committed  # presumed abort
    # Locks were held across the 100-unit outage.
    assert max_hold(system) > 100.0


def test_o2pc_participants_unaffected_by_outage():
    system, outcome = run_with_coordinator_outage(CommitScheme.O2PC, 100.0)
    assert not outcome.committed  # presumed abort: both sites compensate
    # Locks were released at vote time: holds are a few message hops only.
    assert max_hold(system) < 10.0
    system.env.run()
    assert outcome.compensated_sites == ["S1", "S2"]
    assert system.sites["S1"].store.get("k0") == 100
    assert system.sites["S2"].store.get("k0") == 100


def test_blocking_gap_grows_with_outage():
    gaps = []
    for outage in (50.0, 200.0):
        s2pl, _ = run_with_coordinator_outage(CommitScheme.TWO_PL, outage)
        so2, _ = run_with_coordinator_outage(CommitScheme.O2PC, outage)
        gaps.append(max_hold(s2pl) - max_hold(so2))
    assert gaps[1] > gaps[0] + 100.0


def test_blocked_2pl_site_stalls_other_transactions():
    """A second transaction on the same key waits out the outage under
    2PL but proceeds immediately under O2PC."""

    def run(scheme):
        system = System(SystemConfig(scheme=scheme))
        system.submit(spec("T1"))
        system.failures.schedule(
            CrashPlan(site_id="S1", at=6.2, duration=100.0)
        )

        def late_local():
            yield system.env.timeout(10.0)
            yield system.run_local(
                "S2", system.next_local_id(),
                [SemanticOp("deposit", "k0", {"amount": 1})],
            )
            return system.env.now

        done_at = system.env.run(system.env.process(late_local()))
        system.env.run()
        return done_at

    assert run(CommitScheme.O2PC) < 15.0
    assert run(CommitScheme.TWO_PL) > 100.0


def test_coordinator_crash_before_votes_aborts():
    """Votes sent to a crashed coordinator are lost; on recovery it has no
    decision logged and decides ABORT (presumed abort)."""
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    proc = system.submit(spec())
    # Crash the coordinating site as the vote requests are in flight:
    # t=4.5 .. t=404.5 covers the vote round trip.
    system.failures.schedule(
        CrashPlan(site_id="S1", at=4.5, duration=400.0)
    )
    outcome = system.env.run(proc)
    assert not outcome.committed
    # All exposed work was compensated; balances intact.
    system.env.run()
    assert system.sites["S1"].store.get("k0") == 100
    assert system.sites["S2"].store.get("k0") == 100
    system.check_correctness()
