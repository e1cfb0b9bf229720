"""Shared commit-protocol types and configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CommitScheme(enum.Enum):
    """Which commit protocol participants run.

    Every member must have an engine registered in
    :mod:`repro.protocols` (``tests/protocols/test_registry.py`` enforces
    this).
    """

    #: standard 2PC + strict distributed 2PL (locks held until decision)
    TWO_PL = "2PL"
    #: optimistic 2PC (locks released at YES vote; compensation on abort)
    O2PC = "O2PC"
    #: Paxos Commit (Gray & Lamport): one consensus instance per
    #: participant vote, 2F+1 acceptors, non-blocking under coordinator
    #: crash with up to F acceptor failures
    PAXOS = "PAXOS"
    #: Short-Commit: early lock release at vote time with a
    #: commit-dependency list instead of compensation
    SHORT = "SHORT"


@dataclass
class CommitConfig:
    """Timeouts and retry policy for coordinators.

    Times are in simulation units; with the default
    :class:`~repro.net.network.LatencyModel` one unit is one message hop.
    """

    #: how long to wait for each SUBTXN_ACK before giving up
    spawn_timeout: float = 200.0
    #: delay before retrying a retriable R1 rejection
    spawn_retry_delay: float = 5.0
    #: maximum R1 retries per subtransaction before aborting the global txn
    max_spawn_retries: int = 10
    #: how long to wait for votes; missing votes count as NO
    vote_timeout: float = 200.0
    #: how long to wait for decision ACKs per round; missing ACKs are
    #: tolerated after the last round
    ack_timeout: float = 200.0
    #: additional DECISION (re)transmission rounds for sites whose ACK is
    #: missing — the coordinator side of the 2PC termination protocol (a
    #: crashed participant learns the outcome after recovering)
    decision_retries: int = 2
    #: time to force-write the decision record before sending DECISION —
    #: the real window in which a coordinator crash leaves 2PC participants
    #: blocked in the prepared state
    decision_log_delay: float = 0.5
    #: spawn subtransactions one at a time (required for faithful R1
    #: transmark accumulation) or all at once
    sequential_spawn: bool = True
    #: Paxos Commit: number of acceptor processes (2F+1; 3 tolerates one
    #: acceptor failure without blocking)
    paxos_acceptors: int = 3
    #: Paxos Commit: how long a prepared participant waits for the
    #: coordinator's DECISION before running the termination protocol as
    #: recovery leader against the acceptors
    paxos_decision_timeout: float = 60.0
    #: Short-Commit: how long a participant's vote waits for its commit
    #: dependencies (exposed data it read/overwrote) to resolve before it
    #: gives up and votes NO
    short_dependency_timeout: float = 100.0
