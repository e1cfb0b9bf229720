"""The Paxos Commit acceptor role.

An acceptor is a tiny, passive state machine: per transaction it remembers
the highest ballot it promised and, per consensus *instance* (one instance
per participant site), the highest-ballot value it accepted.  2F+1
acceptors tolerate F failures: any two quorums of F+1 intersect, which is
the whole safety argument of Paxos Commit (Gray & Lamport, *Consensus on
Transaction Commit*).

Ballots are ``(round, proposer)`` pairs ordered lexicographically.  Ballot
``(0, "")`` is reserved for a participant's own vote — its phase-2a message
sent straight to the acceptors, saving the phase-1 round in the failure-free
case.  Recovery leaders (a timed-out participant, or the restarted
coordinator) use rounds ≥ 1 with their own endpoint id as tiebreaker, so no
two proposers ever share a ballot.

Acceptor state is durable by definition: the non-blocking guarantee rests
on it.  Each change of the tables is forced to a write-ahead log as one
``ACCEPTOR`` record (keyed by the acceptor's id, so site recovery skips
it) before the reply that reveals it; :meth:`Acceptor.recover` replays
the changes in LSN order.  The sim gives each acceptor its own in-memory
log; a daemon's acceptor shares its site's WAL and group commit.
"""

from __future__ import annotations

from typing import Any

from repro.net.message import Message, MsgType
from repro.storage.wal import Cover, RecordType, WriteAheadLog

#: a ballot: (round, proposer endpoint).  Compared lexicographically.
Ballot = tuple[int, str]

#: ballot 0, reserved for participants' own votes
BALLOT_ZERO: Ballot = (0, "")


def ballot_of(raw: Any) -> Ballot:
    """Normalize a wire-encoded ballot (a 2-list) to a comparable tuple."""
    rnd, proposer = raw
    return (int(rnd), str(proposer))


class Acceptor:
    """One of the 2F+1 Paxos Commit acceptors."""

    #: the acceptor's receive surface: message type → handler method name.
    #: A class-level literal so ``repro lint`` covers it like the
    #: participant's ``_HANDLERS``.
    _HANDLERS: dict[MsgType, str] = {
        MsgType.PAXOS_PREPARE: "_handle_prepare",
        MsgType.PAXOS_ACCEPT: "_handle_accept",
    }

    def __init__(
        self,
        env: Any,
        network: Any,
        acceptor_id: str,
        wal: WriteAheadLog,
    ) -> None:
        self.env = env
        self.network = network
        self.acceptor_id = acceptor_id
        #: the durable record: one forced ACCEPTOR record per table change
        self.wal = wal
        #: txn → highest promised ballot
        self.promised: dict[str, Ballot] = {}
        #: txn → instance (participant site) → (ballot, value)
        self.accepted: dict[str, dict[str, tuple[Ballot, str]]] = {}
        #: txn → the transaction's full participant list, learned from
        #: ballot-0 accepts; recovery leaders read it back from promises
        #: to learn the instance set
        self.sites: dict[str, list[str]] = {}
        #: True from :meth:`crash` to :meth:`recover`: it receives nothing
        self.crashed = False
        self.recover()
        network.register(acceptor_id)
        self._dispatcher = env.process(
            self._dispatch(), name=f"acceptor:{acceptor_id}"
        )

    # -- crash and restart -----------------------------------------------------------

    def crash(self) -> None:
        """The acceptor crashed: its tables are gone, its log is not."""
        self.crashed = True
        self.promised = {}
        self.accepted = {}
        self.sites = {}

    def recover(self) -> None:
        """Rebuild the tables from the log, oldest change first."""
        for record in self.wal.records_for(self.acceptor_id):
            self._apply(record.payload)
        self.crashed = False

    def _record(self, change: dict[str, Any]) -> Cover:
        """Force ``change`` to the log, then apply it to the tables.

        Returns the stamp of the reply that reveals it."""
        self.wal.append(
            RecordType.ACCEPTOR, self.acceptor_id, force=True, **change
        )
        self._apply(change)
        return self.wal.cover(self.acceptor_id)

    def _apply(self, change: dict[str, Any]) -> None:
        txn_id = change["txn"]
        ballot = ballot_of(change["promised"])
        self.promised[txn_id] = ballot
        if "instance" in change:
            self.accepted.setdefault(txn_id, {})[change["instance"]] = (
                ballot, change["value"],
            )
        if "sites" in change:
            self.sites[txn_id] = list(change["sites"])

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self) -> Any:
        handlers = {
            msg_type: getattr(self, method)
            for msg_type, method in self._HANDLERS.items()
        }
        while True:
            msg = yield self.network.receive(self.acceptor_id)
            handler = handlers.get(msg.msg_type)
            if handler is None or self.crashed:
                continue
            # Acceptor handlers never suspend: state update + one reply.
            handler(msg)

    # -- phase 1: prepare / promise --------------------------------------------------

    def _handle_prepare(self, msg: Message) -> None:
        txn_id = msg.txn_id
        ballot = ballot_of(msg.payload["ballot"])
        if ballot > self.promised.get(txn_id, BALLOT_ZERO):
            self._record({"txn": txn_id, "promised": list(ballot)})
        # Always reply: a promise at a higher ballot than the leader's is
        # the nack that tells it to retry with a bigger round.
        accepted = {
            instance: [list(entry[0]), entry[1]]
            for instance, entry in sorted(
                self.accepted.get(txn_id, {}).items()
            )
        }
        self.network.send(Message(
            msg_type=MsgType.PAXOS_PROMISE,
            sender=self.acceptor_id,
            recipient=str(msg.payload.get("leader", msg.sender)),
            txn_id=txn_id,
            payload={
                "ballot": list(self.promised.get(txn_id, BALLOT_ZERO)),
                "accepted": accepted,
                "sites": list(self.sites.get(txn_id, [])),
            },
            # the newest record: every change the promise reveals is
            # durable with it (one sequential log)
            covers=self.wal.cover(self.acceptor_id),
        ))

    # -- phase 2: accept / accepted ---------------------------------------------------

    def _handle_accept(self, msg: Message) -> None:
        txn_id = msg.txn_id
        ballot = ballot_of(msg.payload["ballot"])
        if ballot < self.promised.get(txn_id, BALLOT_ZERO):
            # Nacked by silence; the leader learns the higher ballot from
            # the promise round of its retry.
            return
        instance = str(msg.payload["instance"])
        value = str(msg.payload["value"])
        change: dict[str, Any] = {"txn": txn_id, "promised": list(ballot),
                                  "instance": instance, "value": value}
        sites = msg.payload.get("sites")
        if sites:
            change["sites"] = [str(s) for s in sites]
        accepted = Message(
            msg_type=MsgType.PAXOS_ACCEPTED,
            sender=self.acceptor_id,
            recipient=str(msg.payload["leader"]),
            txn_id=txn_id,
            payload={
                "instance": instance,
                "ballot": list(ballot),
                "value": value,
            },
        )
        accepted.covers = self._record(change)
        self.network.send(accepted)
