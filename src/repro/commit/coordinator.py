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

Failure model: the coordinator checks its own liveness (via an optional
:class:`~repro.net.failures.FailureInjector`) at every protocol step.  While
crashed it makes no progress — messages it would have sent are simply not
sent, and messages sent to it are dropped by the network — and on recovery
it resumes from its durable decision log: if it had decided, it re-sends the
decision; if it crashed before deciding, it decides ABORT (presumed abort).
This reproduces the paper's motivating scenario: 2PL participants blocked in
the prepared state for the whole coordinator outage, O2PC participants
unaffected.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.commit.base import CommitConfig, CommitScheme
from repro.core.protocols import MarkingProtocol, NoProtocol
from repro.net.failures import FailureInjector
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
from repro.storage.wal import Cover, LogRecord, RecordType
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome


class DecisionLog(list[str]):
    """A coordinator's decisions, oldest first.  An entry is durable once
    appended: the simulator models the write as ``decision_log_delay``."""

    @property
    def durable_lsn(self) -> int:
        return len(self)


class Coordinator:
    """Coordinator for one global transaction."""

    #: the coordinator's receive surface: every message type it collects
    #: from its inbox.  A class-level literal so ``repro lint`` can verify
    #: handler exhaustiveness statically (every :class:`MsgType` must be
    #: collected here or handled by the participant); ``_collect`` asserts
    #: against it so the declaration cannot drift from the code.
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
        failures: FailureInjector | None = None,
        acceptors: tuple[str, ...] = (),
    ) -> None:
        # ``acceptors`` completes the registry's keyword set
        # (repro.protocols.EngineSpec); 2PC has none.
        self.env = env
        self.network = network
        self.spec = spec
        self.scheme = scheme
        self.marking = marking or NoProtocol()
        self.config = config or CommitConfig()
        self.failures = failures
        self.endpoint = f"coord.{spec.txn_id}"
        self.inbox = network.register(self.endpoint)
        #: durable decision log (survives coordinator crashes)
        self.decision_log = DecisionLog()
        #: host hook ``(decision, sites) -> stamp`` that really force-writes
        #: the decision record (the daemon's WAL); None = the simulator's
        #: modelled ``decision_log_delay``
        self.force_decision: Callable[[str, list[str]], Cover] | None = None
        #: what this coordinator's DECISION messages are stamped with: the
        #: DECIDE entry that covers them (force-before-send)
        self.decision_cover: Cover | None = None
        #: the sites the last decision round targeted, and the acks it got
        #: back — read by the networked client to re-send the decision to
        #: sites that never acknowledged (a restarted in-doubt daemon)
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
        )
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
        )
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
            yield from self._await_alive()
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
            yield from self._await_alive()
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
                "ops": list(sub.ops),
                "vote": sub.vote,
                "real_action": sub.real_action,
                "transmarks": sorted(transmarks),
            },
        ))

    # -- phase 1: voting ------------------------------------------------------------------

    def _vote_phase(self):
        """Send VOTE_REQ everywhere; returns {site: vote} (missing = absent)."""
        yield from self._await_alive()
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
        write as ``decision_log_delay``; a host that owns a real log
        installs :attr:`force_decision` and pays the write, not the sleep.
        Either way the written entry stamps every DECISION
        (:attr:`decision_cover`).
        """
        if self.force_decision is not None:
            self.decision_cover = self.force_decision(decision, sites)
        elif self.config.decision_log_delay > 0:
            yield self.env.timeout(self.config.decision_log_delay)
        yield from self._await_alive()
        self.decision_log.append(decision)
        if self.decision_cover is None:
            self.decision_cover = (self.decision_log, LogRecord(
                len(self.decision_log), RecordType.DECIDE, self.endpoint,
            ))

    def _decision_phase(self, decision: str, sites: list[str]):
        """Send DECISION, re-sending to unacknowledged sites; returns
        {site: ack payload}.

        The retransmission rounds are the coordinator half of the 2PC
        termination protocol: a participant that crashed after voting
        learns the outcome from a later round once it has recovered.
        """
        self.decision_sites = list(sites)
        acks = self.decision_acks
        for _round in range(1 + max(0, self.config.decision_retries)):
            pending = [s for s in sites if s not in acks]
            if not pending:
                break
            yield from self._await_alive()
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

    def _await_alive(self):
        """Block while the coordinator endpoint is crashed.

        Polls the failure injector; granularity of one time unit is enough
        since outages are scheduled in whole units in the experiments.
        """
        if self.failures is None:
            return
        while not self.failures.is_up(self.endpoint):
            yield self.env.timeout(1.0)
        # After an outage, resume from the durable decision log if we had
        # already decided (retransmission is handled by the caller's flow:
        # _decision_phase is only entered once, after _await_alive).
