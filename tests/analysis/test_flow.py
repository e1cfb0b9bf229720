"""Family 3: force-before-send, the runtime durability gate, and
force-point drift (``repro.analysis.flow``, part 1).

Every mutation test copies the installed package tree, breaks ONE force
discipline, and asserts the exact rule fires — parameterized across all
four commit-scheme engines plus the Paxos acceptor, since each engine
has its own force point and its own outcome-revealing send.
"""

import shutil

import pytest

from repro.analysis import default_root
from repro.analysis.flow import (
    OBLIGATIONS,
    PRAGMA,
    analyze_flow,
    analyze_force_before_send,
    analyze_force_points,
    analyze_rt_gate,
)


@pytest.fixture()
def tree(tmp_path):
    """A scratch copy of the real package tree, safe to mutate."""
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


class TestShippedTreeIsClean:
    def test_no_findings(self):
        assert analyze_flow(default_root()) == []

    def test_obligations_cover_every_engine(self):
        classes = {ob.cls.__name__ for ob in OBLIGATIONS}
        # base 2PC/O2PC participant + coordinator, Short-Commit, Paxos
        # Commit participant, and the acceptor ensemble
        assert classes == {
            "Participant", "Coordinator", "ShortParticipant",
            "PaxosParticipant", "Acceptor",
        }


#: engine → (file, force statement whose deletion uncovers the send)
_FORCE_MUTATIONS = {
    "TWO_PL": (
        "commit/participant.py",
        "            self.site.ltm.prepare(txn_id)\n",
    ),
    "O2PC": (
        "commit/participant.py",
        "            self.site.ltm.local_commit(txn_id)\n",
    ),
    "SHORT": (
        "protocols/short.py",
        "        self.site.ltm.prepare(txn_id)\n",
    ),
    "PAXOS": (
        "protocols/paxos.py",
        "        self.site.ltm.prepare(txn_id)\n",
    ),
    "ACCEPTOR": (
        "protocols/acceptor.py",
        "        self._record(change)\n        self.network.send(Message(\n",
    ),
}


class TestUnforcedSend:
    @pytest.mark.parametrize("engine", sorted(_FORCE_MUTATIONS))
    def test_deleting_the_force_point_fires(self, tree, engine):
        rel, stmt = _FORCE_MUTATIONS[engine]
        if engine == "ACCEPTOR":
            edit(tree, rel, stmt, "        self.network.send(Message(\n")
        else:
            edit(tree, rel, stmt, "")
        found = analyze_force_before_send(tree)
        assert "flow/unforced-send" in rules(found)
        assert all(rel in f.location for f in found)

    def test_both_vote_branches_must_force(self, tree):
        # Deleting only the 2PL-branch prepare leaves the O2PC branch
        # covered — the if-merge is an AND, so the YES send is still
        # reported as reachable without a force.
        edit(
            tree, "commit/participant.py",
            "            self.site.ltm.prepare(txn_id)\n", "",
        )
        found = analyze_force_before_send(tree)
        assert rules(found) == ["flow/unforced-send"]

    def test_pragma_suppresses(self, tree):
        edit(
            tree, "protocols/short.py",
            "        self.site.ltm.prepare(txn_id)\n", "",
        )
        edit(
            tree, "protocols/short.py",
            '        self._reply(msg, MsgType.VOTE, {"vote": "YES"})',
            '        self._reply(msg, MsgType.VOTE, {"vote": "YES"})'
            f"  # {PRAGMA}",
        )
        assert analyze_force_before_send(tree) == []

    def test_no_votes_stay_exempt(self):
        # The shipped tree's NO replies are presumed-abort: uncovered by
        # design, and not findings.
        assert analyze_force_before_send(default_root()) == []


class TestRtGate:
    def test_removing_the_gate_await_fires(self, tree):
        edit(
            tree, "rt/transport.py",
            "        if (batch or told) and self.durability_gate is not None:\n"
            "            await self.durability_gate()\n",
            "",
        )
        found = analyze_rt_gate(tree)
        assert "flow/rt-durability-gate" in rules(found)
        assert any("never awaits" in f.message for f in found)

    def test_writing_ahead_of_the_gate_fires(self, tree):
        edit(
            tree, "rt/transport.py",
            "        if (batch or told) and self.durability_gate is not None:\n",
            "        self._write(link, batch)\n"
            "        if (batch or told) and self.durability_gate is not None:\n",
        )
        found = analyze_rt_gate(tree)
        assert rules(found) == ["flow/rt-durability-gate"]
        assert "before the durability gate" in found[0].message

    def test_a_write_outside_the_one_write_site_fires(self, tree):
        # e.g. a connect that greets its peer with whatever is queued
        edit(
            tree, "rt/transport.py",
            "            link.resume_writing()\n",
            "            link.writer.write(b\"\")\n",
        )
        found = analyze_rt_gate(tree)
        assert rules(found) == ["flow/rt-durability-gate"]
        assert "outside TcpTransport._write" in found[0].message

    def test_a_late_write_of_ungated_messages_fires(self, tree):
        # resume_writing handing over the queue no gate has seen yet
        edit(
            tree, "rt/transport.py",
            "            self.owner._write(self, gated)\n",
            "            self.owner._write(self, self.owner._outbound)\n",
        )
        found = analyze_rt_gate(tree)
        assert rules(found) == ["flow/rt-durability-gate"]
        assert "not taken from a link's gated queue" in found[0].message

    def test_parking_messages_outside_the_write_site_fires(self, tree):
        # send() parking straight into the link's queue skips the gate
        edit(
            tree, "rt/transport.py",
            "        self._outbound.append(message)\n",
            "        self._links[message.recipient].gated.append(message)\n",
        )
        found = analyze_rt_gate(tree)
        assert rules(found) == ["flow/rt-durability-gate"]
        assert "adds to a gated queue" in found[0].message

    def test_removing_the_daemon_install_fires(self, tree):
        edit(
            tree, "rt/daemon.py",
            "        self.transport.durability_gate = "
            "self.flusher.barrier\n",
            "",
        )
        found = analyze_rt_gate(tree)
        assert "flow/rt-durability-gate" in rules(found)
        assert any("never installs" in f.message for f in found)

    def test_removing_the_commit_point_barrier_fires(self, tree):
        # The daemon tells its caller "committed" right after the DECIDE
        # append: written straight to the socket, the reply skips the gate.
        edit(
            tree, "rt/daemon.py",
            "        self.transport.tell(link, {\"kind\": \"told\", \"txn\": "
            "txn_id, **body})\n",
            "        link.writer.write(encode_frame({\"kind\": \"told\", "
            "\"txn\": txn_id, **body}))\n",
        )
        found = analyze_rt_gate(tree)
        assert rules(found) == ["flow/rt-durability-gate"]
        assert "SiteDaemon._reply writes to a socket" in found[0].message

    def test_any_daemon_reply_written_around_the_gate_fires(self, tree):
        # Not only the commit point: a status reply may not reveal a
        # force point either (it reports forced_writes).
        edit(
            tree, "rt/daemon.py",
            '        self.transport.tell(link, {"kind": "admin", "cmd": cmd, '
            '"reply": reply})\n',
            '        link.writer.write(encode_frame({"kind": "admin", '
            '"cmd": cmd, "reply": reply}))\n',
        )
        found = analyze_rt_gate(tree)
        assert rules(found) == ["flow/rt-durability-gate"]
        assert "SiteDaemon._handle_control writes" in found[0].message


class TestForcePointDrift:
    def test_undeclared_force_point_fires(self, tree):
        edit(tree, "txn/local_manager.py", '"prepare",', "")
        found = analyze_force_points(tree)
        assert rules(found) == ["flow/force-point-drift"]
        assert "not declared" in found[0].message

    def test_declared_but_unforced_fires(self, tree):
        edit(
            tree, "txn/local_manager.py",
            '"commit",', '"commit", "made_up",',
        )
        found = analyze_force_points(tree)
        assert rules(found) == ["flow/force-point-drift"]
        assert "'made_up'" in found[0].message
        assert "no longer met" in found[0].message
