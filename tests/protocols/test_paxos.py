"""Paxos Commit on the simulated substrate.

The headline property under test is the one that distinguishes the scheme
from the whole 2PC family: participants reach a decision while the
coordinator is *down* (with its site, the transaction's first), as long
as an acceptor majority is up.  The
timeouts are compressed exactly like the checker's so a watchdog round
fits in a short run.
"""

import pytest

from repro.commit.base import CommitConfig, CommitScheme
from repro.harness.system import System, SystemConfig
from repro.ids import is_coordinator_id
from repro.net.failures import CrashPlan
from repro.net.network import LatencyModel
from repro.obs.events import MessageSent
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

#: the crash window: after both votes (~6 with unit latency), before the
#: coordinator's force-logged decision goes out (votes + 0.5 log delay)
CRASH_AT = 6.2
OUTAGE = 400.0


def make_system(**overrides):
    config = SystemConfig(
        n_sites=2, scheme=CommitScheme.PAXOS, protocol="none", seed=0,
        latency=LatencyModel(base=1.0, jitter=0.0), commit=COMMIT,
        **overrides,
    )
    return System(config)


def transfer(vote=VotePolicy.AUTO):
    return GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 1)]),
        SubtxnSpec("S2", [WriteOp("k1", 1)], vote=vote),
    ])


def decisions(system, txn_id="T1"):
    return {
        site_id: participant.subtxns[txn_id]
        for site_id, participant in system.participants.items()
        if txn_id in participant.subtxns
    }


class TestFailureFree:
    def test_ballot_zero_fast_path_commits(self):
        system = make_system()
        outcome = system.run_transaction(transfer())
        assert outcome.committed
        for state in decisions(system).values():
            assert state.decided == "COMMIT"
        # Every acceptor saw both instances' ballot-0 YES votes.
        for acceptor in system.acceptors.values():
            accepted = acceptor.accepted["T1"]
            assert {i: v for i, (_, v) in accepted.items()} == {
                "S1": "YES", "S2": "YES",
            }

    def test_no_vote_aborts_without_compensation(self):
        # Paxos Commit holds locks through the decision like 2PC: an
        # abort is a plain rollback, never a compensating action.
        system = make_system()
        outcome = system.run_transaction(transfer(vote=VotePolicy.FORCE_NO))
        assert not outcome.committed
        assert outcome.compensated_sites == ()
        assert system.sites["S1"].store.get_or("k0", None) == 100

    def test_commits_with_one_acceptor_down(self):
        # 2F+1 = 3 acceptors tolerate F = 1: a bare 2-of-3 quorum carries
        # the fast path with no extra rounds.
        system = make_system()
        system.failures.schedule(CrashPlan("acc.3", at=0.5, duration=OUTAGE))
        outcome = system.run_transaction(transfer())
        assert outcome.committed


class TestNonBlocking:
    def run_crashed_coordinator(self, extra_plans=(), **overrides):
        """Crash S1, T1's coordinating site: the coordinator dies with it
        and S2 is the surviving participant."""
        system = make_system(**overrides)
        system.failures.schedule(CrashPlan("acc.3", at=0.5, duration=OUTAGE))
        for plan in extra_plans:
            system.failures.schedule(plan)
        system.failures.schedule(
            CrashPlan("S1", at=CRASH_AT, duration=OUTAGE)
        )
        proc = system.submit(transfer())
        system.env.run()
        assert proc.value.committed
        return system

    def test_participants_decide_during_the_outage(self):
        system = self.run_crashed_coordinator()
        state = decisions(system)["S2"]
        assert state.decided == "COMMIT"
        # The recovery leader's termination protocol needed one watchdog
        # timeout plus a couple of message rounds — nowhere near S1's
        # return at t≈406.
        assert state.decided_at is not None
        assert state.decided_at < CRASH_AT + 60.0
        # The restarted S1 learned the same outcome (its own in-doubt
        # participant and its rebuilt coordinator both ask the acceptors).
        assert decisions(system)["S1"].decided == "COMMIT"
        assert system.sites["S1"].store.get_or("k0", None) == 1
        assert system.sites["S2"].store.get_or("k1", None) == 1

    def test_the_surviving_participant_leads_first(self):
        # The first site hosts the coordinator and ranks last among
        # recovery leaders, so the survivor S2 leads as soon as its
        # watchdog fires: t = 21.0, where ranking by position (S1 first)
        # made it wait out one stagger (t = 24.0).
        system = self.run_crashed_coordinator()
        assert decisions(system)["S2"].decided_at == pytest.approx(21.0)

    def test_a_recovery_leaders_decision_is_not_acknowledged(self):
        # S2 leads the termination and sends the decision to every site,
        # itself included.  Only a coordinator collects ACKs: one sent to
        # a site would go unread.
        system = self.run_crashed_coordinator(observability=True)
        sent = [e for e in system.events() if isinstance(e, MessageSent)]
        assert [
            e.recipient for e in sent
            if e.msg_type == "DECISION" and e.sender == "S2"
        ] == ["S1", "S2"]
        assert [
            (e.sender, e.recipient) for e in sent
            if e.msg_type == "ACK" and not is_coordinator_id(e.recipient)
        ] == []

    def test_quorum_loss_blocks_until_an_acceptor_returns(self):
        # The contrapositive: with 2 of 3 acceptors down no termination
        # quorum exists, and the decision must wait until the acceptor
        # outage ends at t=400.5 restores a majority.
        system = self.run_crashed_coordinator(
            extra_plans=(CrashPlan("acc.2", at=0.5, duration=OUTAGE),)
        )
        for site_id, state in decisions(system).items():
            assert state.decided == "COMMIT", site_id
            assert state.decided_at is not None
            assert state.decided_at > 0.5 + OUTAGE, site_id


class TestAcceptorRestart:
    def test_recovery_rebuilds_the_tables_a_crash_cleared(self):
        system = make_system()
        assert system.run_transaction(transfer()).committed
        acceptor = system.acceptors["acc.1"]
        tables = (acceptor.promised, acceptor.accepted, acceptor.sites)
        assert set(acceptor.accepted["T1"]) == {"S1", "S2"}

        system.failures.crash("acc.1")
        assert (acceptor.promised, acceptor.accepted, acceptor.sites) == (
            {}, {}, {},
        )
        system.failures.recover("acc.1")
        assert (acceptor.promised, acceptor.accepted, acceptor.sites) == tables
