"""Message types exchanged between sites.

The message vocabulary follows the paper exactly: the 2PC rounds are
``VOTE_REQ`` (PREPARE), ``VOTE``, and ``DECISION`` plus the customary ``ACK``.
Transaction processing uses ``SUBTXN_REQ``/``SUBTXN_ACK`` to submit a
subtransaction and acknowledge its operations — the coordinator starts 2PC
only after all operation acknowledgements (Section 2, distributed 2PL).

O2PC introduces **no new message types** — that is one of the paper's claims,
and the benchmark ``CLAIM-MSG`` counts these very objects to verify it.
Short-Commit makes the same claim and also adds nothing.  Paxos Commit
(Gray & Lamport) replaces the VOTE round with one Paxos consensus instance
per participant: ``PAXOS_ACCEPT``/``PAXOS_ACCEPTED`` are phases 2a/2b (a
participant's own vote is its ballot-0 2a message), and
``PAXOS_PREPARE``/``PAXOS_PROMISE`` are phases 1a/1b of the termination
protocol a recovery leader runs when the coordinator goes silent.

:data:`COVERING` is the paper's force-before-send rule (§4) as one table:
a message that reveals a logged outcome carries, in :attr:`Message.covers`,
the record that covers it, and :meth:`Covering.check` (run by the
simulated network on every send, and by the TCP transport on every
write) refuses it unless that record is of a covering kind and durable.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from repro.errors import ProtocolViolation
from repro.storage.wal import RecordType

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.wal import Cover


class MsgType(enum.Enum):
    """Wire message types (2PC vocabulary plus subtransaction submission)."""

    #: coordinator → participant: request to execute a subtransaction
    SUBTXN_REQ = "SUBTXN_REQ"
    #: participant → coordinator: all operations executed (or rejected)
    SUBTXN_ACK = "SUBTXN_ACK"
    #: coordinator → participant: first 2PC round (PREPARE)
    VOTE_REQ = "VOTE_REQ"
    #: participant → coordinator: YES/NO vote
    VOTE = "VOTE"
    #: coordinator → participant: final commit/abort decision
    DECISION = "DECISION"
    #: participant → coordinator: decision acknowledged
    ACK = "ACK"
    #: leader → acceptor: Paxos phase 1a (termination-protocol prepare)
    PAXOS_PREPARE = "PAXOS_PREPARE"
    #: acceptor → leader: Paxos phase 1b (promise + accepted values)
    PAXOS_PROMISE = "PAXOS_PROMISE"
    #: proposer → acceptor: Paxos phase 2a (ballot 0 carries the
    #: participant's own vote; higher ballots come from recovery leaders)
    PAXOS_ACCEPT = "PAXOS_ACCEPT"
    #: acceptor → leader: Paxos phase 2b (value accepted at a ballot)
    PAXOS_ACCEPTED = "PAXOS_ACCEPTED"


class Vote(enum.Enum):
    """A participant's vote in the 2PC first phase."""

    YES = "YES"
    NO = "NO"


class Decision(enum.Enum):
    """The coordinator's final decision."""

    COMMIT = "COMMIT"
    ABORT = "ABORT"


_seq = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A single message on the wire.

    ``payload`` carries protocol-specific data (votes, decisions, operation
    lists).  ``send_time``/``deliver_time`` are stamped by the network and
    used by the metrics layer to account latency.
    """

    msg_type: MsgType
    sender: str
    recipient: str
    txn_id: str
    payload: dict[str, Any] = field(default_factory=dict)
    send_time: float = -1.0
    deliver_time: float = -1.0
    seq: int = field(default_factory=lambda: next(_seq))
    #: the sender's stamp for :data:`COVERING`: the record that covers
    #: what the message reveals, or an exemption by name (:data:`QUORUM`,
    #: :data:`PRESUMED_ABORT`).  A local slot: never encoded on the wire
    covers: "Cover | str | None" = field(
        default=None, repr=False, compare=False,
    )

    def reply(
        self, msg_type: MsgType, payload: dict[str, Any] | None = None
    ) -> "Message":
        """Build a reply addressed back to this message's sender."""
        return Message(
            msg_type=msg_type,
            sender=self.recipient,
            recipient=self.sender,
            txn_id=self.txn_id,
            payload=payload or {},
        )

    def __repr__(self) -> str:
        return (
            f"<Msg #{self.seq} {self.msg_type.value} {self.sender}->"
            f"{self.recipient} txn={self.txn_id} {self.payload}>"
        )


#: the stamp of a DECISION sent by a Paxos Commit recovery leader: F+1
#: acceptors' durable accepts cover it (each checked as its own
#: PAXOS_ACCEPTED), not a record of the sender's
QUORUM = "quorum"

#: the stamp of an ACK of an ABORT decision: under presumed abort it
#: reveals nothing a crash could take back (the site may never have logged
#: the transaction, or still be compensating it)
PRESUMED_ABORT = "presumed abort"


class Revealing(Protocol):
    """What :meth:`Covering.check` reads: a :class:`Message`, or a reply
    to a client that reveals what one would."""

    @property
    def payload(self) -> dict[str, Any]: ...

    @property
    def covers(self) -> "Cover | str | None": ...


@dataclass(frozen=True, slots=True)
class Covering:
    """One row of the force-before-send table."""

    #: what the row protects, for the violation message
    what: str
    #: the record kinds that may cover the message (a tuple: membership by
    #: identity, no enum hashing on the send path)
    kinds: tuple[RecordType, ...]
    #: payload entries a message must carry to reveal anything: a NO vote
    #: and a presumed-abort DECISION reveal nothing logged
    reveals: tuple[tuple[str, Any], ...] = ()
    #: stamps that exempt the send by name (:data:`QUORUM`,
    #: :data:`PRESUMED_ABORT`)
    exempt: frozenset[str] = frozenset()

    def check(self, message: Revealing) -> bool:
        """Raise :class:`ProtocolViolation` unless ``message`` is covered.

        Returns True when a stamped record was checked, False when the
        message reveals nothing or its stamp exempts it.
        """
        payload = message.payload
        for key, value in self.reveals:
            if payload.get(key) != value:
                return False
        cover = message.covers
        if not isinstance(cover, tuple):
            if cover in self.exempt:
                return False
            raise ProtocolViolation(
                f"{message!r} sent stamped {cover!r}: {self.what}"
            )
        log, record = cover
        if record is None or record.record_type not in self.kinds:
            raise ProtocolViolation(
                f"{message!r} stamped {record!r}, not one of "
                f"{[k.value for k in self.kinds]}: {self.what}"
            )
        if record.lsn > log.durable_lsn:
            raise ProtocolViolation(
                f"{message!r} sent before {record!r} was durable "
                f"(durable up to LSN {log.durable_lsn}): {self.what}"
            )
        return True


#: force-before-send (§4; Gray & Lamport count these as the protocol's
#: stable writes): each message type that can reveal a logged outcome,
#: with the records that may cover it
COVERING: dict[MsgType, Covering] = {
    MsgType.VOTE: Covering(
        "a YES vote reveals the prepared (O2PC: locally committed) state; "
        "Short-Commit's is its PREPARE",
        (RecordType.PREPARE, RecordType.LOCAL_COMMIT),
        reveals=(("vote", "YES"),),
    ),
    MsgType.PAXOS_ACCEPT: Covering(
        "a ballot-0 YES accept is the participant's prepared vote",
        (RecordType.PREPARE,),
        reveals=(("value", "YES"), ("ballot", [0, ""])),
    ),
    MsgType.DECISION: Covering(
        "a COMMIT decision reveals the coordinator's decision record "
        "(presumed abort: an ABORT reveals nothing)",
        (RecordType.DECIDE,),
        reveals=(("decision", "COMMIT"),),
        exempt=frozenset({QUORUM}),
    ),
    MsgType.PAXOS_ACCEPTED: Covering(
        "PAXOS_ACCEPTED reveals the acceptor's accept",
        (RecordType.ACCEPTOR,),
    ),
    MsgType.PAXOS_PROMISE: Covering(
        "PAXOS_PROMISE reveals the acceptor's promise and accepts",
        (RecordType.ACCEPTOR,),
    ),
    MsgType.ACK: Covering(
        "an ACK of a COMMIT reveals the site's COMMIT record: under "
        "presumed abort the coordinator forgets on the last ACK",
        (RecordType.COMMIT,),
        exempt=frozenset({PRESUMED_ABORT}),
    ),
}
