"""The nonblocking oracle and the crashcoord scenario.

crashcoord is the blocking drill: the coordinating site S1 down after the
votes (its coordinator dies with it), one acceptor down throughout.  Every
scheme must pass it — the 2PC family by legitimately waiting out the
outage (the oracle is PAXOS-only) and then presuming abort, Paxos Commit
by terminating during it at the surviving participant S2.  Killing a
second acceptor removes the termination quorum, and the oracle must catch
the resulting block.
"""

import pytest

from repro.check.oracles import run_oracles
from repro.check.workloads import get_scenario, make_system_config
from repro.commit.base import CommitScheme
from repro.harness.system import System
from repro.net.failures import CrashPlan


def run_crashcoord(scheme, extra_plans=()):
    scenario = get_scenario("crashcoord")
    system = System(make_system_config(scenario, "none", 0, scheme=scheme))
    for plan in extra_plans:
        system.failures.schedule(plan)
    scenario.build(system)
    system.env.run()
    return system


class TestCrashcoordScenario:
    @pytest.mark.parametrize("scheme", list(CommitScheme))
    def test_every_scheme_survives_the_drill(self, scheme):
        system = run_crashcoord(scheme)
        assert run_oracles(system) == []
        outcome = system.outcomes[0]
        # No DECIDE was logged before the crash: the restarted S1 presumes
        # abort, except under Paxos Commit, whose acceptors chose COMMIT.
        assert outcome.txn_id == "T1"
        assert outcome.committed == (scheme is CommitScheme.PAXOS)

    def test_paxos_decides_inside_the_outage(self):
        system = run_crashcoord(CommitScheme.PAXOS)
        state = system.participants["S2"].subtxns["T1"]
        assert state.decided_at is not None
        assert state.decided_at < 6.2 + 400.0

    def test_two_pl_waits_for_the_coordinator(self):
        system = run_crashcoord(CommitScheme.TWO_PL)
        state = system.participants["S2"].subtxns["T1"]
        assert state.decided_at is not None
        assert state.decided_at > 6.2 + 400.0


class TestNonblockingOracle:
    def test_quorum_loss_under_paxos_is_flagged(self):
        system = run_crashcoord(
            CommitScheme.PAXOS,
            extra_plans=(CrashPlan("acc.2", at=0.5, duration=400.0),),
        )
        violations = run_oracles(system)
        assert violations, "oracle missed a blocked Paxos Commit"
        assert {v.oracle for v in violations} == {"nonblocking"}
        # The surviving YES voter sat on its vote past the termination
        # budget (S1 is down with its coordinator: not judged).
        flagged = {v.detail.split()[0] for v in violations}
        assert flagged == {"S2"}

    def test_a_block_under_two_pl_is_vacuous(self):
        # A 2PC-family scheme has no acceptors to lose; S2 going down too
        # leaves its YES vote undecided past the budget, which the oracle
        # (PAXOS-only) does not judge.
        system = run_crashcoord(
            CommitScheme.O2PC,
            extra_plans=(CrashPlan("S2", at=6.5, duration=400.0),),
        )
        assert system.participants["S2"].subtxns["T1"].decided_at > 76.2
        assert run_oracles(system) == []


class TestReplayDeterminism:
    def test_crashcoord_event_stream_is_reproducible(self):
        streams = [
            run_crashcoord(CommitScheme.PAXOS).obs.jsonl()
            for _ in range(2)
        ]
        assert streams[0] == streams[1]
        assert streams[0]  # observability is on in the checker config
