"""The message flow that actually runs, per commit scheme.

O2PC adds no message to 2PC's vocabulary (§2), and a message counts only
if someone receives it.  This module runs the model checker's three
scenarios (``conflict``, ``duel``, ``crashcoord``) under every registered
engine and records each message the simulated network is handed as
``(message type, recipient role)``: a ``coord.<txn>`` endpoint is the
coordinator, an acceptor id the acceptor, anything else a site's
participant.  The receive surfaces come from the running registry
(:data:`repro.protocols.ENGINES`): the coordinator class's ``_COLLECTS``,
the participant's and the acceptor's ``_HANDLERS`` — the tables the
dispatch loops bind and ``Coordinator._collect`` asserts against.

Checked per scheme: every message sent has a role that receives it, and
every declared surface entry is reached; over all schemes, every
:class:`MsgType` member is received.  Every failure message starts with
``message flow:``.  The recordings and helpers here are shared with
``tests/analysis/test_dispatch.py`` and ``test_msgflow.py``, which pin
each scheme's flow (the 2PC skeleton, PAXOS's acceptor rounds) and show
that a dropped, unused or swapped receiver is caught.
"""

from __future__ import annotations

import functools

import pytest

from repro.check.explorer import CheckConfig, ModelChecker
from repro.check.workloads import CHECK_COMMIT, SCENARIOS
from repro.commit.base import CommitScheme
from repro.ids import is_coordinator_id
from repro.net.message import MsgType
from repro.net.network import Network
from repro.protocols import ENGINES, acceptor_ids

#: schedules explored per scenario and scheme: enough to reach every
#: surface entry (a PAXOS recovery leader's rounds included)
SCHEDULES = 150

ACCEPTORS = frozenset(acceptor_ids(CHECK_COMMIT.paxos_acceptors))

Flow = frozenset[tuple[MsgType, str]]

SCHEMES = pytest.mark.parametrize(
    "scheme", list(CommitScheme), ids=lambda scheme: scheme.name,
)


def role_of(endpoint: str) -> str:
    if is_coordinator_id(endpoint):
        return "coordinator"
    return "acceptor" if endpoint in ACCEPTORS else "participant"


def surfaces(scheme: CommitScheme) -> dict[str, frozenset[MsgType]]:
    """Each role's receive surface, from the running registry."""
    engine = ENGINES[scheme]
    declared = {
        "coordinator": engine.coordinator._COLLECTS,
        "participant": engine.participant._HANDLERS,
    }
    if engine.acceptor is not None:
        declared["acceptor"] = engine.acceptor._HANDLERS
    return {role: frozenset(surface) for role, surface in declared.items()}


def record(scheme: CommitScheme, schedules: int = SCHEDULES) -> Flow:
    """Every ``(type, recipient role)`` sent in the checker's scenarios."""
    sent: set[tuple[MsgType, str]] = set()
    send = Network.send

    def recording_send(self: Network, message) -> None:
        sent.add((message.msg_type, role_of(message.recipient)))
        send(self, message)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "send", recording_send)
        for scenario in sorted(SCENARIOS):
            ModelChecker(CheckConfig(
                scenario=scenario, scheme=scheme, max_schedules=schedules,
            )).run()
    return frozenset(sent)


@functools.cache
def recorded(scheme: CommitScheme) -> Flow:
    return record(scheme)


def names(flow) -> list[str]:
    return sorted(f"{msg_type.name} to {role}" for msg_type, role in flow)


def unanswered(scheme: CommitScheme, flow: Flow) -> list[str]:
    surface = surfaces(scheme)
    return names(
        (msg_type, role) for msg_type, role in flow
        if msg_type not in surface.get(role, ())
    )


def unreached(scheme: CommitScheme, flow: Flow) -> list[str]:
    return names(
        (msg_type, role)
        for role, surface in surfaces(scheme).items()
        for msg_type in surface
        if (msg_type, role) not in flow
    )


def unreceived(vocabulary) -> list[str]:
    """The names in ``vocabulary`` that no scheme's run receives."""
    received = {
        msg_type.name
        for scheme in CommitScheme
        for msg_type, role in recorded(scheme)
        if msg_type in surfaces(scheme).get(role, ())
    }
    return sorted(name for name in vocabulary if name not in received)


@SCHEMES
def test_every_message_sent_has_a_receiver(scheme):
    orphans = unanswered(scheme, recorded(scheme))
    assert not orphans, (
        f"message flow: {scheme.name} sends what the recipient role "
        f"neither handles nor collects: {orphans}"
    )


@SCHEMES
def test_every_declared_receiver_is_reached(scheme):
    dead = unreached(scheme, recorded(scheme))
    assert not dead, (
        f"message flow: {scheme.name} declares receivers no run sends "
        f"to: {dead}"
    )


def test_every_msg_type_is_received_in_some_scheme():
    missing = unreceived(MsgType.__members__)
    assert not missing, f"message flow: no scheme receives {missing}"
