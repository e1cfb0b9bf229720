"""Force-before-send and the runtime durability gate
(``flow/rt-durability-gate`` in ``repro.analysis.blocking``).

Force-before-send is a run-time check: the simulated network refuses a
revealing message its covering record does not make durable
(``repro.net.message.COVERING``).  ``TestUnforcedSend`` deletes each
engine's force point in-process — across all four commit-scheme engines
plus the Paxos acceptor, since each has its own force point and its own
outcome-revealing send — and expects the send to raise.  The TCP
transport runs the same check where frames reach a socket; what stays a
static rule is that nothing writes to a socket anywhere else: each
``TestRtGate`` case copies the installed package tree, adds ONE such
write, and asserts the rule fires.
"""

import shutil

import pytest

from repro.analysis import default_root
from repro.analysis.blocking import analyze_rt_gate
from repro.commit.base import CommitScheme
from repro.errors import ProtocolViolation
from repro.protocols.acceptor import Acceptor
from repro.txn.local_manager import LocalTransactionManager
from repro.txn.transaction import VotePolicy
from tests.net.test_covering import transfer


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
        assert analyze_rt_gate(default_root()) == []


def _skip(*_args, **_kwargs):
    """A force point deleted: the method no longer logs anything."""


#: engine → (scheme run, the class and method whose force is deleted)
_FORCE_MUTATIONS = {
    "TWO_PL": (CommitScheme.TWO_PL, LocalTransactionManager, "prepare"),
    "O2PC": (CommitScheme.O2PC, LocalTransactionManager, "local_commit"),
    "SHORT": (CommitScheme.SHORT, LocalTransactionManager, "prepare"),
    "PAXOS": (CommitScheme.PAXOS, LocalTransactionManager, "prepare"),
    # the acceptor applies the change but logs nothing: its reply goes
    # out with no record to stamp
    "ACCEPTOR": (CommitScheme.PAXOS, Acceptor, "_record"),
}


class TestUnforcedSend:
    @pytest.mark.parametrize("engine", sorted(_FORCE_MUTATIONS))
    def test_deleting_the_force_point_fires(self, monkeypatch, engine):
        scheme, cls, method = _FORCE_MUTATIONS[engine]
        if cls is Acceptor:
            monkeypatch.setattr(
                cls, method, lambda self, change: self._apply(change),
            )
        else:
            monkeypatch.setattr(cls, method, _skip)
        with pytest.raises(ProtocolViolation):
            transfer(scheme)

    def test_both_vote_branches_must_force(self, monkeypatch):
        # Deleting only the 2PL-branch prepare leaves the O2PC branch
        # covered: an O2PC run still commits, but a real-action site (the
        # branch that prepares) sends its YES vote uncovered.
        monkeypatch.setattr(LocalTransactionManager, "prepare", _skip)
        assert transfer(CommitScheme.O2PC).committed
        with pytest.raises(ProtocolViolation, match="VOTE"):
            transfer(CommitScheme.O2PC, real_action=True)

    def test_no_votes_stay_exempt(self):
        # A NO vote and the presumed-abort DECISION that follows reveal
        # nothing logged: they go out unstamped, and the seam lets them.
        for scheme in CommitScheme:
            outcome = transfer(scheme, vote=VotePolicy.FORCE_NO)
            assert not outcome.committed
            assert outcome.no_votes == ["S1"]


class TestRtGate:
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

    def test_removing_the_commit_point_barrier_fires(self, tree):
        # The daemon tells its caller "committed" right after the DECIDE
        # append: written straight to the socket, the reply skips the gate.
        edit(
            tree, "rt/daemon.py",
            "        self.transport.tell(link, {\"kind\": \"told\", \"txn\": "
            "txn_id, **body}, covers)\n",
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
