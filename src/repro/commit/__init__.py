"""Commit protocols: the base 2PC machinery and its four schemes.

This package holds the shared coordinator/participant state machines; the
per-scheme engines live in :mod:`repro.protocols` (docs/PROTOCOLS.md walks
the message flows in §1–§6 and compares the schemes in §7–§14).  The
incumbent pair shares the message flow (SUBTXN_REQ/ACK, VOTE_REQ, VOTE, DECISION, ACK — O2PC adds **nothing**)
and differs only in what a participant does when it votes YES:

* :data:`~repro.commit.base.CommitScheme.TWO_PL` — the participant enters
  the prepared state and **holds all locks** until the decision arrives
  (strict distributed 2PL; blocking);
* :data:`~repro.commit.base.CommitScheme.O2PC` — the participant *locally
  commits*: it force-logs, releases every lock at once, and compensates
  later if the decision turns out to be ABORT (Section 2).

The competitor schemes extend the same machinery:

* :data:`~repro.commit.base.CommitScheme.PAXOS` — Paxos Commit: votes are
  consensus instances over 2F+1 acceptors; non-blocking under coordinator
  crash (adds the PAXOS_* message types);
* :data:`~repro.commit.base.CommitScheme.SHORT` — Short-Commit: prepares
  like 2PC but releases locks at the vote, tracking commit dependencies
  and cascade-aborting instead of compensating.

:class:`~repro.commit.coordinator.Coordinator` drives one global transaction
end to end; :class:`~repro.commit.participant.Participant` is the per-site
message loop.
"""

from repro.commit.base import CommitConfig, CommitScheme
from repro.commit.coordinator import Coordinator
from repro.commit.participant import Participant

__all__ = [
    "CommitConfig",
    "CommitScheme",
    "Coordinator",
    "Participant",
]
