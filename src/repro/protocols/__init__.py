"""Pluggable commit-scheme engines on the shared substrate.

The harness (sim backend) and the networked runtime (net backend) both
construct their protocol engines through this registry instead of naming
engine classes themselves.  An engine is one ``register(EngineSpec(...))``
row at the bottom of this module: the :class:`~repro.commit.base.CommitScheme`
member and the class that plays each role — coordinator, participant and,
for schemes that have one, acceptor.  Everything else that needs to know
which class plays which role (the hosts, the message-flow test
``tests/protocols/test_message_flow.py``) reads it off :data:`ENGINES`.

Registered engines:

* ``TWO_PL`` / ``O2PC`` — the incumbent pair: the base
  :class:`~repro.commit.coordinator.Coordinator` and
  :class:`~repro.commit.participant.Participant`, standard 2PC with strict
  distributed 2PL, and the paper's optimistic variant that locally
  commits at the YES vote (the scheme member selects the participant's
  vote-time behavior).
* ``PAXOS`` — Paxos Commit (:mod:`repro.protocols.paxos`): one consensus
  instance per participant vote over 2F+1 acceptors
  (:mod:`repro.protocols.acceptor`); non-blocking under coordinator crash
  with up to F acceptor failures.
* ``SHORT`` — Short-Commit (:mod:`repro.protocols.short`): early lock
  release at the YES vote with a commit-dependency list instead of
  compensation.

``tests/protocols/test_registry.py`` fails when an enum member has no
entry here, so adding a scheme to the enum without an engine is caught in
tier-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.commit.base import CommitScheme
from repro.commit.coordinator import Coordinator
from repro.commit.participant import Participant
from repro.errors import UnknownScheme
from repro.protocols.acceptor import Acceptor
from repro.protocols.paxos import PaxosCommitCoordinator, PaxosParticipant
from repro.protocols.short import ShortParticipant

__all__ = [
    "EngineSpec",
    "ENGINES",
    "register",
    "engine_for",
    "acceptor_ids",
]


@dataclass(frozen=True)
class EngineSpec:
    """One commit scheme's engine: the class that plays each role.

    Hosts construct every engine the same way:
    ``coordinator(env=, network=, spec=, scheme=, marking=, config=,
    host=, acceptors=)``, ``participant(site=, network=, scheme=,
    marking=, lock_marks=, commit=, acceptors=)`` and, when set,
    ``acceptor(env, network, acceptor_id, wal)``.  ``acceptors`` is the
    tuple of acceptor endpoint ids (empty for schemes without acceptors);
    the base classes accept it and ignore it.
    """

    scheme: CommitScheme
    coordinator: type[Coordinator]
    participant: type[Participant]
    #: the role of the scheme's 2F+1 acceptor processes (None: no acceptors)
    acceptor: type[Acceptor] | None = None


#: the engine registry, populated by the rows below
ENGINES: dict[CommitScheme, EngineSpec] = {}


def register(spec: EngineSpec) -> None:
    """Register (or replace) the engine for ``spec.scheme``."""
    ENGINES[spec.scheme] = spec


def engine_for(scheme: CommitScheme) -> EngineSpec:
    """The registered engine for ``scheme``; raises :class:`UnknownScheme`."""
    try:
        return ENGINES[scheme]
    except KeyError:
        known = ", ".join(sorted(s.value for s in ENGINES))
        raise UnknownScheme(
            f"no engine registered for {scheme!r} (known: {known})"
        ) from None


def acceptor_ids(n: int) -> tuple[str, ...]:
    """The endpoint ids of ``n`` acceptor processes (``acc.1`` .. ``acc.n``)."""
    return tuple(f"acc.{i}" for i in range(1, n + 1))


register(EngineSpec(CommitScheme.O2PC, Coordinator, Participant))
register(EngineSpec(CommitScheme.TWO_PL, Coordinator, Participant))
register(EngineSpec(
    CommitScheme.PAXOS, PaxosCommitCoordinator, PaxosParticipant,
    acceptor=Acceptor,
))
register(EngineSpec(CommitScheme.SHORT, Coordinator, ShortParticipant))
