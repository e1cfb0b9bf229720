"""Force-before-send is a run-time check.

The simulated network refuses a revealing message its covering record
does not make durable (``repro.net.message.COVERING``).  Each case
deletes one engine's force point in-process — across all four
commit-scheme engines plus the Paxos acceptor, since each has its own
force point and its own outcome-revealing send — and expects the send to
raise.  The TCP transport runs the same check where frames reach a
socket, and the loop guard (``tests/loop_guard.py``) records any socket
write that goes around it.
"""

import pytest

from repro.commit.base import CommitScheme
from repro.errors import ProtocolViolation
from repro.protocols.acceptor import Acceptor
from repro.txn.local_manager import LocalTransactionManager
from repro.txn.transaction import VotePolicy
from tests.net.test_covering import transfer


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
