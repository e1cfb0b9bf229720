"""Family 3, part 2: the per-scheme message-flow graph
(``repro.analysis.flow``: ``build_flow_graphs`` and the msgflow rules).
"""

import shutil

import pytest

from repro.analysis import default_root
from repro.analysis.dispatch import scheme_roles
from repro.analysis.flow import (
    analyze_message_flow,
    build_flow_graphs,
    flow_edges,
    render_flow_dot,
)
from repro.commit.base import CommitScheme
from repro.commit.participant import Participant
from repro.protocols import ENGINES, EngineSpec

SCHEMES = sorted(m.name for m in CommitScheme)

#: the role map the analyzer used to keep by hand, before it was derived
#: from the engine registry
_BASE_COORD = ("commit/coordinator.py", "Coordinator")
_BASE_PART = ("commit/participant.py", "Participant")
EXPECTED_ROLES = {
    "TWO_PL": {
        "coordinator": (_BASE_COORD,),
        "participant": (_BASE_PART,),
    },
    "O2PC": {
        "coordinator": (_BASE_COORD,),
        "participant": (_BASE_PART,),
    },
    "PAXOS": {
        "coordinator": (
            ("protocols/paxos.py", "PaxosCommitCoordinator"),
            _BASE_COORD,
        ),
        "participant": (
            ("protocols/paxos.py", "PaxosParticipant"),
            _BASE_PART,
        ),
        "acceptor": (("protocols/acceptor.py", "Acceptor"),),
    },
    "SHORT": {
        "coordinator": (_BASE_COORD,),
        "participant": (
            ("protocols/short.py", "ShortParticipant"),
            _BASE_PART,
        ),
    },
}


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(default_root(), root)
    return root


def edit(root, rel, old, new):
    path = root / rel
    text = path.read_text()
    assert old in text, f"mutation pattern drifted out of {rel}: {old!r}"
    path.write_text(text.replace(old, new))


def rules(findings):
    return [f.rule for f in findings]


class TestGraphs:
    def test_every_scheme_is_mapped(self):
        assert sorted(scheme_roles()) == SCHEMES

    def test_derived_roles_are_the_hand_kept_map(self):
        assert scheme_roles() == EXPECTED_ROLES

    def test_swapping_a_registry_row_changes_the_paxos_graph(
        self, monkeypatch,
    ):
        # The base participant votes with VOTE, which no PAXOS role
        # collects, and never sends the ballot-0 accepts.
        monkeypatch.setitem(ENGINES, CommitScheme.PAXOS, EngineSpec(
            CommitScheme.PAXOS,
            ENGINES[CommitScheme.PAXOS].coordinator,
            Participant,
            acceptor=ENGINES[CommitScheme.PAXOS].acceptor,
        ))
        assert scheme_roles()["PAXOS"]["participant"] == (_BASE_PART,)
        edges = set(flow_edges(build_flow_graphs(default_root())["PAXOS"]))
        assert ("participant", "PAXOS_ACCEPT", "acceptor") not in edges
        found = analyze_message_flow(default_root())
        assert "msgflow/orphan-send" in rules(found)
        assert any(
            "MsgType.VOTE " in f.message
            and f.location.startswith("commit/participant.py:")
            for f in found
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_voting_round_trip_present(self, scheme):
        # Every engine shares the 2PC skeleton: the coordinator asks for
        # votes, the participant answers, a decision goes back out.
        edges = set(flow_edges(build_flow_graphs(default_root())[scheme]))
        assert ("coordinator", "SUBTXN_REQ", "participant") in edges
        assert ("participant", "SUBTXN_ACK", "coordinator") in edges
        assert ("coordinator", "VOTE_REQ", "participant") in edges

    def test_o2pc_graph_is_exactly_the_2pc_skeleton(self):
        edges = flow_edges(build_flow_graphs(default_root())["O2PC"])
        assert edges == [
            ("coordinator", "DECISION", "participant"),
            ("coordinator", "SUBTXN_REQ", "participant"),
            ("coordinator", "VOTE_REQ", "participant"),
            ("participant", "ACK", "coordinator"),
            ("participant", "SUBTXN_ACK", "coordinator"),
            ("participant", "VOTE", "coordinator"),
        ]

    def test_paxos_graph_includes_the_acceptor_rounds(self):
        edges = set(flow_edges(build_flow_graphs(default_root())["PAXOS"]))
        # 2a from both the leader and the participants' ballot-0 votes
        assert ("participant", "PAXOS_ACCEPT", "acceptor") in edges
        assert ("coordinator", "PAXOS_ACCEPT", "acceptor") in edges
        assert ("acceptor", "PAXOS_ACCEPTED", "coordinator") in edges
        # the termination watchdog relays DECISION peer-to-peer
        assert ("participant", "DECISION", "participant") in edges

    def test_short_graph_inherits_base_sends_via_super(self):
        # ShortParticipant delegates SUBTXN_REQ/DECISION handling to the
        # base class with super() — the splice keeps those sends visible.
        edges = set(flow_edges(build_flow_graphs(default_root())["SHORT"]))
        assert ("participant", "SUBTXN_ACK", "coordinator") in edges
        assert ("participant", "ACK", "coordinator") in edges


class TestRules:
    def test_shipped_tree_is_clean(self):
        assert analyze_message_flow(default_root()) == []

    def test_orphan_send_when_one_engine_drops_its_handler(self, tree):
        # Removing DECISION from the Paxos participant ONLY: the union
        # dispatch family stays quiet (the base participant still has
        # it), but the PAXOS scheme now drops its decision on the floor.
        edit(
            tree, "protocols/paxos.py",
            'MsgType.DECISION: "_handle_decision",\n', "",
        )
        found = analyze_message_flow(tree)
        assert "msgflow/orphan-send" in rules(found)
        assert any("PAXOS" in f.message for f in found)

    def test_dead_handler_when_nobody_sends(self, tree):
        # An inbound type nobody emits in that scheme's graph.
        edit(
            tree, "commit/participant.py",
            "        MsgType.DECISION: \"_handle_decision\",",
            "        MsgType.DECISION: \"_handle_decision\",\n"
            "        MsgType.PAXOS_PROMISE: \"_handle_decision\",",
        )
        found = analyze_message_flow(tree)
        assert "msgflow/dead-handler" in rules(found)


class TestDot:
    def test_one_graph_per_scheme(self):
        graphs = render_flow_dot(default_root())
        assert sorted(graphs) == SCHEMES

    def test_dot_shape_and_determinism(self):
        a = render_flow_dot(default_root())
        b = render_flow_dot(default_root())
        assert a == b
        dot = a["O2PC"]
        assert dot.startswith("digraph flow_O2PC {")
        assert '"coordinator" -> "participant" [label="VOTE_REQ"];' in dot
        assert dot.endswith("}\n")

    def test_acceptor_appears_only_in_paxos(self):
        graphs = render_flow_dot(default_root())
        assert '"acceptor"' in graphs["PAXOS"]
        for scheme in ("TWO_PL", "O2PC", "SHORT"):
            assert "acceptor" not in graphs[scheme]
