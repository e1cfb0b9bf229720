"""The per-scheme message flow, as the engines run it.

Each scheme's flow is the set of ``(message type, recipient role)`` pairs
its engines send in the model checker's scenarios, recorded by
``tests/protocols/test_message_flow.py``; the receive surfaces come from
the running registry (:data:`repro.protocols.ENGINES`).  These tests pin
what each scheme sends and show that a per-scheme hole, an unused
handler and a swapped registry row are each caught.
"""

import pytest

from repro.commit.base import CommitScheme
from repro.commit.coordinator import Coordinator
from repro.commit.participant import Participant
from repro.net.message import MsgType
from repro.protocols import ENGINES, EngineSpec
from repro.protocols.acceptor import Acceptor
from repro.protocols.paxos import PaxosCommitCoordinator, PaxosParticipant
from repro.protocols.short import ShortParticipant
from tests.protocols.test_message_flow import (
    Flow,
    names,
    record,
    recorded,
    unanswered,
    unreached,
    unreceived,
)

SCHEMES = sorted(m.name for m in CommitScheme)

#: each scheme's registered class per role
EXPECTED_ROLES = {
    "TWO_PL": {"coordinator": Coordinator, "participant": Participant},
    "O2PC": {"coordinator": Coordinator, "participant": Participant},
    "PAXOS": {
        "coordinator": PaxosCommitCoordinator,
        "participant": PaxosParticipant,
        "acceptor": Acceptor,
    },
    "SHORT": {"coordinator": Coordinator, "participant": ShortParticipant},
}

#: 2PC with subtransaction submission (Section 2)
TWO_PC: Flow = frozenset({
    (MsgType.SUBTXN_REQ, "participant"),
    (MsgType.SUBTXN_ACK, "coordinator"),
    (MsgType.VOTE_REQ, "participant"),
    (MsgType.VOTE, "coordinator"),
    (MsgType.DECISION, "participant"),
    (MsgType.ACK, "coordinator"),
})

#: Paxos Commit: votes are ballot-0 accepts, learned from the acceptors;
#: a recovery leader at a site runs phases 1 and 2 itself
PAXOS: Flow = (TWO_PC - {(MsgType.VOTE, "coordinator")}) | {
    (MsgType.PAXOS_PREPARE, "acceptor"),
    (MsgType.PAXOS_ACCEPT, "acceptor"),
    (MsgType.PAXOS_PROMISE, "coordinator"),
    (MsgType.PAXOS_PROMISE, "participant"),
    (MsgType.PAXOS_ACCEPTED, "coordinator"),
    (MsgType.PAXOS_ACCEPTED, "participant"),
}


def registered_roles(scheme: CommitScheme) -> dict[str, type]:
    engine = ENGINES[scheme]
    roles = {
        "coordinator": engine.coordinator,
        "participant": engine.participant,
    }
    if engine.acceptor is not None:
        roles["acceptor"] = engine.acceptor
    return roles


def assert_flow(scheme: CommitScheme, expected: Flow) -> None:
    flow = recorded(scheme)
    assert flow == expected, (
        f"message flow: {scheme.name} added {names(flow - expected)}, "
        f"missing {names(expected - flow)}"
    )


class TestGraphs:
    def test_every_scheme_is_mapped(self):
        assert sorted(scheme.name for scheme in ENGINES) == SCHEMES
        assert all(recorded(scheme) for scheme in CommitScheme)

    def test_derived_roles_are_the_hand_kept_map(self):
        for scheme in CommitScheme:
            roles = registered_roles(scheme)
            assert roles == EXPECTED_ROLES[scheme.name]
            # every registered role receives something, and nothing else does
            assert {role for _, role in recorded(scheme)} == set(roles)

    def test_swapping_a_registry_row_changes_the_paxos_graph(
        self, monkeypatch,
    ):
        # The base participant in the PAXOS row answers VOTE_REQ with a
        # VOTE no PAXOS coordinator collects: the flow is read off the
        # registry that runs, not off the engine modules.
        paxos = ENGINES[CommitScheme.PAXOS]
        shipped = recorded(CommitScheme.PAXOS)
        monkeypatch.setitem(ENGINES, CommitScheme.PAXOS, EngineSpec(
            CommitScheme.PAXOS, paxos.coordinator, Participant,
            acceptor=paxos.acceptor,
        ))
        flow = record(CommitScheme.PAXOS, schedules=1)
        assert (MsgType.VOTE, "coordinator") in flow - shipped
        assert unanswered(CommitScheme.PAXOS, flow) == ["VOTE to coordinator"]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_voting_round_trip_present(self, scheme):
        # Every engine shares the 2PC skeleton: the coordinator asks for
        # votes, the participant answers, a decision goes back out.
        flow = recorded(CommitScheme[scheme])
        assert (MsgType.SUBTXN_REQ, "participant") in flow
        assert (MsgType.SUBTXN_ACK, "coordinator") in flow
        assert (MsgType.VOTE_REQ, "participant") in flow
        assert (MsgType.DECISION, "participant") in flow

    def test_o2pc_graph_is_exactly_the_2pc_skeleton(self):
        # O2PC's claim: no message beyond 2PC's (2PL runs plain 2PC).
        assert_flow(CommitScheme.O2PC, TWO_PC)
        assert_flow(CommitScheme.TWO_PL, TWO_PC)

    def test_paxos_graph_includes_the_acceptor_rounds(self):
        assert_flow(CommitScheme.PAXOS, PAXOS)

    def test_short_graph_inherits_base_sends_via_super(self):
        # ShortParticipant delegates SUBTXN_REQ/DECISION handling to the
        # base class with super() and inherits its handler table: it
        # sends exactly what 2PC sends.
        assert "_HANDLERS" not in vars(ShortParticipant)
        assert_flow(CommitScheme.SHORT, TWO_PC)


class TestRules:
    def test_shipped_tree_is_clean(self):
        assert unreceived(MsgType.__members__) == []
        for scheme in CommitScheme:
            flow = recorded(scheme)
            assert unanswered(scheme, flow) == []
            assert unreached(scheme, flow) == []

    def test_orphan_send_when_one_engine_drops_its_handler(self, monkeypatch):
        # Removing DECISION from the Paxos participant ONLY: the union of
        # surfaces still receives DECISION (the base participant has it),
        # but the PAXOS scheme now drops its decision on the floor.
        flows = {scheme: recorded(scheme) for scheme in CommitScheme}
        monkeypatch.setattr(PaxosParticipant, "_HANDLERS", {
            msg_type: method
            for msg_type, method in PaxosParticipant._HANDLERS.items()
            if msg_type is not MsgType.DECISION
        })
        assert unreceived(MsgType.__members__) == []
        for scheme, flow in flows.items():
            expected = (
                ["DECISION to participant"]
                if scheme is CommitScheme.PAXOS else []
            )
            assert unanswered(scheme, flow) == expected

    def test_dead_handler_when_nobody_sends(self, monkeypatch):
        # An inbound type nobody sends to that role in the scheme.
        flow = recorded(CommitScheme.O2PC)
        monkeypatch.setattr(Participant, "_HANDLERS", {
            **Participant._HANDLERS,
            MsgType.PAXOS_PROMISE: "_handle_decision",
        })
        assert unreached(CommitScheme.O2PC, flow) == [
            "PAXOS_PROMISE to participant",
        ]
