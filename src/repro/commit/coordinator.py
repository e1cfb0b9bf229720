"""The coordinator: drives one global transaction end to end.

Flow (Section 2): submit every subtransaction and wait for operation
acknowledgements (distributed 2PL initiates the commit protocol only once
the transaction holds all its locks); then the standard 2PC rounds —
VOTE_REQ to all, collect votes, force-log the decision, send DECISION,
collect ACKs.

R1 integration: with a marking protocol active, subtransactions are spawned
sequentially and ``transmarks.j`` accumulates from each SUBTXN_ACK; a
retriable R1 rejection is retried after a delay (bounded), a fatal one
aborts the global transaction.

Failure model: the coordinator lives in its transaction's first site
(:class:`~repro.commit.host.CoordinatorHost`), logs to that site's WAL
and dies with it; the restarted site re-sends a logged decision, or
decides by :meth:`Coordinator.recover_decision` (presumed abort; Paxos
Commit asks its acceptors).  A crash between the votes and the
``DECIDE`` is the paper's motivating scenario: 2PL participants blocked
in the prepared state for the whole outage, O2PC participants
unaffected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.commit.base import CommitConfig, CommitScheme
from repro.core.protocols import MarkingProtocol, NoProtocol
from repro.ids import coordinator_id
from repro.net.message import Message, MsgType
from repro.net.transport import Transport
from repro.obs.events import (
    DecisionReached,
    PhaseEntered,
    TxnSubmitted,
    TxnTerminated,
    VoteRecorded,
)
from repro.sim.engine import Environment
from repro.storage.wal import Cover
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome

if TYPE_CHECKING:  # pragma: no cover - the host imports this module
    from repro.commit.host import CoordinatorHost


class Coordinator:
    """Coordinator for one global transaction."""

    #: the coordinator's receive surface: every message type it collects
    #: from its inbox.  ``_collect`` asserts against it so the declaration
    #: cannot drift from the code, and
    #: ``tests/protocols/test_message_flow.py`` checks it against the
    #: messages a run actually sends to a coordinator.
    _COLLECTS: tuple[MsgType, ...] = (
        MsgType.SUBTXN_ACK,
        MsgType.VOTE,
        MsgType.ACK,
    )

    def __init__(
        self,
        env: Environment,
        network: Transport,
        spec: GlobalTxnSpec,
        scheme: CommitScheme = CommitScheme.O2PC,
        marking: MarkingProtocol | None = None,
        config: CommitConfig | None = None,
        host: "CoordinatorHost | None" = None,
        acceptors: tuple[str, ...] = (),
    ) -> None:
        self.env = env
        self.network = network
        self.spec = spec
        self.scheme = scheme
        self.marking = marking or NoProtocol()
        self.config = config or CommitConfig()
        #: the site's coordinator host, which logs the decision
        self.host = host
        #: the acceptor endpoints (Paxos Commit; 2PC has none)
        self.acceptors = acceptors
        self.endpoint = coordinator_id(spec.txn_id)
        self.inbox = network.register(self.endpoint)
        #: what this coordinator's DECISION messages are stamped with: the
        #: DECIDE entry that covers them (force-before-send)
        self.decision_cover: Cover | None = None
        #: the decision the last round sent ("ABORT" until one is reached)
        self.decision = "ABORT"
        #: the sites the last decision round targeted, and the acks it got
        #: back — the host keeps the decision owed to sites that never
        #: acknowledged (a restarted in-doubt site)
        self.decision_sites: list[str] = []
        self.decision_acks: dict[str, dict[str, Any]] = {}
        self.outcome = TxnOutcome(txn_id=spec.txn_id, committed=False)

    # -- public entry -------------------------------------------------------------

    def run(self):
        """Run the transaction to termination (generator; returns outcome)."""
        outcome = self.outcome
        outcome.start_time = self.env.now
        txn_id = self.spec.txn_id
        bus = self.env.bus
        if bus.enabled:
            bus.publish(TxnSubmitted(
                txn_id=txn_id, sites=tuple(self.spec.site_ids),
            ))
            bus.publish(PhaseEntered(txn_id=txn_id, phase="spawn"))
        self.marking.register_execution(txn_id, self.spec.site_ids)

        executed_sites, ok = yield from self._spawn_phase()
        if not ok:
            if bus.enabled:
                bus.publish(DecisionReached(txn_id=txn_id, decision="ABORT"))
            yield from self._abort_executed(executed_sites)
            outcome.decision_time = self.env.now
            outcome.end_time = self.env.now
            self.marking.on_transaction_terminated(txn_id)
            if bus.enabled:
                bus.publish(TxnTerminated(
                    txn_id=txn_id, committed=False,
                    latency=outcome.end_time - outcome.start_time,
                    compensated_sites=tuple(outcome.compensated_sites),
                ))
            return outcome

        if bus.enabled:
            bus.publish(PhaseEntered(txn_id=txn_id, phase="vote"))
        votes = yield from self._vote_phase()
        if bus.enabled:
            for site, vote in sorted(votes.items()):
                bus.publish(VoteRecorded(
                    txn_id=txn_id, site_id=site, vote=vote,
                ))
        decision = (
            "COMMIT"
            if all(v == "YES" for v in votes.values())
            and len(votes) == len(self.spec.subtxns)
            else "ABORT"
        )
        outcome.no_votes = sorted(
            site for site, v in votes.items() if v == "NO"
        ) or ()
        yield from self._log_decision(decision, executed_sites)
        outcome.decision_time = self.env.now
        outcome.committed = decision == "COMMIT"
        if bus.enabled:
            bus.publish(DecisionReached(txn_id=txn_id, decision=decision))
            bus.publish(PhaseEntered(txn_id=txn_id, phase="decision"))

        acks = yield from self._decision_phase(decision, executed_sites)
        outcome.compensated_sites = sorted(
            site for site, payload in acks.items()
            if payload.get("compensated")
        ) or ()
        outcome.end_time = self.env.now
        self.marking.on_transaction_terminated(txn_id)
        if bus.enabled:
            bus.publish(TxnTerminated(
                txn_id=txn_id, committed=outcome.committed,
                latency=outcome.end_time - outcome.start_time,
                compensated_sites=tuple(outcome.compensated_sites),
            ))
        return outcome

    # -- phase 0: subtransaction execution --------------------------------------------

    def _spawn_phase(self):
        """Submit subtransactions; returns (executed_sites, all_ok)."""
        transmarks: set[str] = set()
        executed: list[str] = []
        if self.config.sequential_spawn:
            for sub in self.spec.subtxns:
                ok = yield from self._spawn_one(sub, transmarks, executed)
                if not ok:
                    return executed, False
        else:
            for sub in self.spec.subtxns:
                self._send_subtxn_req(sub, transmarks)
            for _ in self.spec.subtxns:
                msg = yield from self._collect(
                    MsgType.SUBTXN_ACK, self.config.spawn_timeout
                )
                if msg is None or not msg.payload.get("executed"):
                    if msg is not None and msg.payload.get("rejected"):
                        self.outcome.rejections += 1
                    return executed, False
                executed.append(msg.sender)
        return executed, True

    def _spawn_one(self, sub, transmarks: set[str], executed: list[str]):
        attempts = 0
        while True:
            attempts += 1
            self._send_subtxn_req(sub, transmarks)
            msg = yield from self._collect(
                MsgType.SUBTXN_ACK, self.config.spawn_timeout
            )
            if msg is None:
                return False
            if msg.payload.get("executed"):
                executed.append(sub.site_id)
                transmarks.update(msg.payload.get("marks", ()))
                return True
            if msg.payload.get("rejected"):
                self.outcome.rejections += 1
                if (
                    msg.payload.get("retriable")
                    and attempts <= self.config.max_spawn_retries
                ):
                    yield self.env.timeout(self.config.spawn_retry_delay)
                    continue
            return False

    def _send_subtxn_req(self, sub, transmarks: set[str]) -> None:
        self.network.send(Message(
            msg_type=MsgType.SUBTXN_REQ,
            sender=self.endpoint,
            recipient=sub.site_id,
            txn_id=self.spec.txn_id,
            payload={
                "ops": sub.ops,
                "vote": sub.vote,
                "real_action": sub.real_action,
                "transmarks": sorted(transmarks),
            },
        ))

    # -- phase 1: voting ------------------------------------------------------------------

    def _vote_phase(self):
        """Send VOTE_REQ everywhere; returns {site: vote} (missing = absent)."""
        transmarks = sorted(self._final_transmarks())
        for sub in self.spec.subtxns:
            self.network.send(Message(
                msg_type=MsgType.VOTE_REQ,
                sender=self.endpoint,
                recipient=sub.site_id,
                txn_id=self.spec.txn_id,
                payload={"transmarks": transmarks},
            ))
        votes: dict[str, str] = {}
        deadline = self.env.now + self.config.vote_timeout
        while len(votes) < len(self.spec.subtxns):
            remaining = deadline - self.env.now
            if remaining <= 0:
                break
            msg = yield from self._collect(MsgType.VOTE, remaining)
            if msg is None:
                break
            votes[msg.sender] = msg.payload["vote"]
        return votes

    def _final_transmarks(self) -> set[str]:
        """The complete ``transmarks.j`` after every site joined.

        Re-derived from the marking protocol's current site marks so the
        vote-time validation sees up-to-date information.
        """
        marks: set[str] = set()
        for sub in self.spec.subtxns:
            marks |= self.marking.merge_marks(
                self.spec.txn_id, sub.site_id, marks
            )
        return marks

    # -- phase 2: decision ---------------------------------------------------------------------

    def _log_decision(self, decision: str, sites: list[str]):
        """Force-write the decision record before any DECISION leaves.

        A crash inside this window is the paper's blocking scenario
        (participants prepared, no decision).  The simulator models the
        write's latency as ``decision_log_delay`` (a daemon pays the real
        fsync and sleeps nothing); the host appends the forced ``DECIDE``,
        which stamps every DECISION (:attr:`decision_cover`).
        """
        if self.config.decision_log_delay > 0:
            yield self.env.timeout(self.config.decision_log_delay)
        assert self.host is not None, "a coordinator logs through its host"
        self.decision_cover = self.host.decide(self, decision, sites)

    def recover_decision(self, sites: list[str]):
        """The decision of a restarted site's coordinator that logged none
        (generator): presumed abort — no participant can have committed
        without a logged decision."""
        return "ABORT"
        yield  # pragma: no cover - make this a generator

    def _decision_phase(self, decision: str, sites: list[str]):
        """Send DECISION, re-sending to unacknowledged sites; returns
        {site: ack payload}.

        The retransmission rounds are the coordinator half of the 2PC
        termination protocol: a participant that crashed after voting
        learns the outcome from a later round once it has recovered.
        """
        self.decision = decision
        self.decision_sites = list(sites)
        acks = self.decision_acks
        for _round in range(1 + max(0, self.config.decision_retries)):
            pending = [s for s in sites if s not in acks]
            if not pending:
                break
            for site_id in pending:
                self.network.send(Message(
                    msg_type=MsgType.DECISION,
                    sender=self.endpoint,
                    recipient=site_id,
                    txn_id=self.spec.txn_id,
                    payload={"decision": decision},
                    covers=self.decision_cover,
                ))
            deadline = self.env.now + self.config.ack_timeout
            while len(acks) < len(sites):
                remaining = deadline - self.env.now
                if remaining <= 0:
                    break
                msg = yield from self._collect(MsgType.ACK, remaining)
                if msg is None:
                    break
                acks[msg.sender] = msg.payload
        return acks

    def _abort_executed(self, sites: list[str]):
        """Short-circuit abort: no votes were requested.

        The DECISION(ABORT) goes to *every* site of the transaction
        unconditionally — not just the acknowledged ones.  A site whose
        subtransaction is still blocked on a lock (e.g. the loser of a
        cross-site deadlock resolved by this very timeout, or a spawn that
        never acknowledged) must be unwound, or it would hold its locks
        forever; sites that never saw the transaction simply acknowledge
        the unknown decision.
        """
        yield from self._decision_phase("ABORT", self.spec.site_ids)

    # -- infrastructure -----------------------------------------------------------------------

    def _collect(self, msg_type: MsgType, timeout: float):
        """Receive the next message of ``msg_type`` within ``timeout``.

        Messages of other types for this coordinator (stale ACKs, late
        votes) are discarded.  Returns None on timeout.
        """
        assert msg_type in self._COLLECTS, (
            f"{msg_type} missing from Coordinator._COLLECTS"
        )
        deadline = self.env.now + timeout
        while True:
            # Clamped: a pumped clock can pass the deadline between an
            # arrival and its handling (repro.rt.pump).
            msg = yield self.inbox.get(max(deadline - self.env.now, 0.0))
            if msg is None or msg.msg_type is msg_type:
                return msg
