"""The participant: one site's side of 2PC / O2PC.

A participant runs a dispatch loop over its site's network inbox and spawns
a handler process per message, so a subtransaction blocked on a lock never
delays the processing of later messages (vote requests for other
transactions, decisions, ...).

Handler behavior per message type:

``SUBTXN_REQ``
    Rule R1 (when a marking protocol is active): check
    ``compatible(transmarks.j, sitemarks.k)``; reject with the retriable
    flag on failure.  Otherwise execute the operations under strict 2PL.
    Deadlock victimization rolls the subtransaction back and reports
    execution failure.  Success reports the site's marks for the
    coordinator to merge (R1's ``transmarks.j ∪ sitemarks.k``).

``VOTE_REQ``
    Re-validate the final ``transmarks.j`` (the paper's "check validated
    again as the last action" — piggybacked here so it costs no message).
    Vote NO (and roll back, which is the degenerate ``CT_ik``) if the spec
    forces it or validation fails.  Vote YES otherwise: under O2PC the site
    *locally commits* — force-logs and releases every lock at once; under
    2PL (or for a ``real_action`` subtransaction under O2PC, Section 2's
    non-compensatable case) it merely prepares and keeps its locks.

``DECISION``
    COMMIT: finalize (2PL participants release locks now).
    ABORT: roll back if still holding locks; run the compensating
    subtransaction if locally committed (rule R2 applies the undone mark
    after ``CT_ik`` completes).  Always ACK.

Unilateral abort (the autonomy property, Section 1): :meth:`unilateral_abort`
lets the site kill a subtransaction any time before it votes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.commit.base import CommitConfig, CommitScheme
from repro.compensation.executor import CompensationExecutor
from repro.core.protocols import MarkingProtocol, NoProtocol
from repro.errors import DeadlockDetected, LockTimeout, TransactionAborted
from repro.net.message import PRESUMED_ABORT, Message, MsgType
from repro.net.transport import Transport
from repro.obs.events import (
    DecisionApplied,
    LocallyCommitted,
    Prepared,
    SiteCrashed,
    SiteRecovered,
    SubtxnExecuted,
    SubtxnFailed,
    SubtxnRejected,
    SubtxnStarted,
)
from repro.sim.process import Process
from repro.storage.wal import Cover
from repro.txn.operations import Op
from repro.txn.site import Site
from repro.txn.transaction import TxnStatus, VotePolicy


@dataclass
class _SubtxnState:
    """Participant-side state of one subtransaction."""

    txn_id: str
    ops: list[Op]
    vote_policy: VotePolicy
    real_action: bool
    executed: bool = False
    voted: str | None = None
    decided: str | None = None
    #: simulation time the decision was applied (the non-blocking oracle
    #: compares it against coordinator outage windows)
    decided_at: float | None = None
    compensated: bool = False
    #: reconstructed from the log after a crash (in-doubt path)
    recovered: bool = False


class Participant:
    """One site's protocol engine."""

    #: the participant's receive surface: message type → handler method
    #: name.  A class-level literal so ``repro lint`` can verify handler
    #: exhaustiveness statically (every :class:`MsgType` must be handled
    #: here or collected by the coordinator); ``_dispatch`` binds it.
    _HANDLERS: dict[MsgType, str] = {
        MsgType.SUBTXN_REQ: "_handle_subtxn",
        MsgType.VOTE_REQ: "_handle_vote_req",
        MsgType.DECISION: "_handle_decision",
    }

    def __init__(
        self,
        site: Site,
        network: Transport,
        scheme: CommitScheme = CommitScheme.O2PC,
        marking: MarkingProtocol | None = None,
        compensation_retry_delay: float = 1.0,
        lock_marks: bool = False,
        commit: CommitConfig | None = None,
        acceptors: tuple[str, ...] = (),
    ) -> None:
        # ``acceptors`` completes the registry's keyword set
        # (repro.protocols.EngineSpec); 2PC has none.
        self.site = site
        self.env = site.env
        self.network = network
        self.scheme = scheme
        self.marking = marking or NoProtocol()
        #: the coordinator-side timeouts, for engines that act on them at
        #: the participant (Short-Commit's dependency wait, Paxos Commit's
        #: termination watchdog)
        self.commit = commit or CommitConfig()
        #: store the marking set as a lockable database item (Section 6.2's
        #: first option): the R1 check read-locks it, and the compensating
        #: subtransaction writes it as its last action — the configuration
        #: that exhibits the marking-set deadlock the paper remarks on.
        #: False (default) models the "acceptable compromise": check first,
        #: unlock immediately, re-validate at vote time.
        self.lock_marks = lock_marks
        self.compensator = CompensationExecutor(
            site, retry_delay=compensation_retry_delay,
            lock_marks=lock_marks,
        )
        self.subtxns: dict[str, _SubtxnState] = {}
        #: SUBTXN_REQs refused because their transaction id was taken
        self.reused_ids_refused = 0
        #: live handler processes — killed on crash, since a handler
        #: suspended mid-protocol must not keep running against wiped state
        self._handlers: set[Any] = set()
        network.register(site.site_id)
        self._dispatcher = self.env.process(
            self._dispatch(), name=f"participant:{site.site_id}"
        )

    # -- dispatch loop ------------------------------------------------------------

    def _dispatch(self):
        # Built once, not per message: the dispatch loop runs for every
        # delivery and is on the checker's innermost hot path.
        handlers = {
            msg_type: getattr(self, method)
            for msg_type, method in self._HANDLERS.items()
        }
        while True:
            msg = yield self.network.receive(self.site.site_id)
            handler = handlers.get(msg.msg_type)
            if handler is None:
                continue
            # Eager spawn: the handler's first segment runs inline, and a
            # handler that completes without suspending (VOTE_REQ, duplicate
            # decisions) never allocates a Process at all.  Only suspended
            # handlers need crash tracking — a completed one has nothing
            # left to interrupt.
            proc = Process.eager(
                self.env,
                handler(msg),
                name=f"{self.site.site_id}:{msg.msg_type.value}:{msg.txn_id}",
            )
            if proc is not None and proc.is_alive:
                self._handlers.add(proc)
                proc.callbacks.append(
                    lambda _evt, p=proc: self._handlers.discard(p)
                )

    # -- SUBTXN_REQ ----------------------------------------------------------------

    def _handle_subtxn(self, msg: Message):
        txn_id = msg.txn_id
        payload = msg.payload
        transmarks: set[str] = set(payload.get("transmarks", ()))

        if txn_id in self.subtxns:
            # A reused transaction id.  Executing it would re-acquire locks
            # the first incarnation released (a 2PL violation) and replace
            # the state its decision applies to, so refuse it before
            # anything changes: once the first incarnation is decided, the
            # ABORT its reuser's coordinator sends is only acknowledged.
            self.reused_ids_refused += 1
            self._reply(msg, MsgType.SUBTXN_ACK, {
                "executed": False,
                "rejected": True,
                "retriable": False,
                "reason": "transaction id already in use",
            })
            return

        check = self.marking.check_spawn(txn_id, self.site.site_id, transmarks)
        if not check.ok:
            bus = self.env.bus
            if bus.enabled:
                bus.publish(SubtxnRejected(
                    txn_id=txn_id, site_id=self.site.site_id,
                    retriable=check.retriable, reason=check.reason,
                ))
            self._reply(msg, MsgType.SUBTXN_ACK, {
                "executed": False,
                "rejected": True,
                "retriable": check.retriable,
                "reason": check.reason,
            })
            return

        state = _SubtxnState(
            txn_id=txn_id,
            ops=list(payload["ops"]),
            vote_policy=payload.get("vote", VotePolicy.AUTO),
            real_action=payload.get("real_action", False),
        )
        self.subtxns[txn_id] = state

        bus = self.env.bus
        if bus.enabled:
            bus.publish(SubtxnStarted(txn_id=txn_id, site_id=self.site.site_id))
        self.site.ltm.begin(txn_id)
        try:
            if self.lock_marks and not isinstance(self.marking, NoProtocol):
                # The R1 check reads the marking set under a real S lock
                # held, like any data access, until the transaction's locks
                # are released (strict 2PL).
                from repro.core.marks import MARKS_KEY
                from repro.locking.modes import LockMode

                yield self.site.locks.acquire(txn_id, MARKS_KEY, LockMode.S)
                self.site.history.read(txn_id, MARKS_KEY)
            yield from self.site.ltm.run_ops(txn_id, state.ops)
        except (DeadlockDetected, LockTimeout) as exc:
            ct_id = self.site.ltm.rollback_subtxn(txn_id)
            self._mark(self.marking.on_vote_abort, txn_id)
            if bus.enabled:
                bus.publish(SubtxnFailed(
                    txn_id=txn_id, site_id=self.site.site_id,
                    reason=type(exc).__name__,
                ))
            self._reply(msg, MsgType.SUBTXN_ACK, {
                "executed": False,
                "rejected": False,
                "retriable": False,
                "reason": type(exc).__name__,
                "ct_id": ct_id,
            })
            return
        except TransactionAborted:
            # An abort decision arrived while we were blocked on a lock:
            # the decision handler already rolled the subtransaction back;
            # just report execution failure (the coordinator has moved on).
            if bus.enabled:
                bus.publish(SubtxnFailed(
                    txn_id=txn_id, site_id=self.site.site_id,
                    reason="aborted while blocked",
                ))
            self._reply(msg, MsgType.SUBTXN_ACK, {
                "executed": False,
                "rejected": False,
                "retriable": False,
                "reason": "aborted while blocked",
            })
            return

        state.executed = True
        if bus.enabled:
            bus.publish(SubtxnExecuted(
                txn_id=txn_id, site_id=self.site.site_id,
            ))
        # Witness recording for UDUM1 (rule R3 fires inside when enabled).
        self.marking.on_executed(txn_id, self.site.site_id)
        self._reply(msg, MsgType.SUBTXN_ACK, {
            "executed": True,
            "rejected": False,
            "marks": sorted(
                self.marking.merge_marks(txn_id, self.site.site_id, transmarks)
            ),
        })

    # -- VOTE_REQ ---------------------------------------------------------------------

    def _handle_vote_req(self, msg: Message):
        txn_id = msg.txn_id
        state = self.subtxns.get(txn_id)
        transmarks: set[str] = set(msg.payload.get("transmarks", ()))

        if (
            self.lock_marks
            and self.site.marks_key
            and state is not None
            and state.executed
            and self.site.ltm.is_active(txn_id)
        ):
            # With locked marking sets, the validation re-read is "the last
            # action of the subtransaction": a recorded history operation
            # whose conflict with compensations' marking writes orders this
            # transaction against them (Lemma 5's mechanism).  The S lock
            # taken at spawn is still held, so the order is 2PL-consistent.
            self.site.history.read(txn_id, self.site.marks_key)

        can_commit = (
            state is not None
            and state.executed
            and self.site.ltm.is_active(txn_id)
            and state.vote_policy is not VotePolicy.FORCE_NO
            and self.marking.validate_at_vote(
                txn_id, self.site.site_id, transmarks
            )
        )

        if not can_commit:
            if state is not None and self.site.ltm.is_active(txn_id):
                self.site.ltm.rollback_subtxn(txn_id)
                self._mark(self.marking.on_vote_abort, txn_id)
            if state is not None:
                state.voted = "NO"
            self._reply(msg, MsgType.VOTE, {"vote": "NO"})
            return

        assert state is not None
        bus = self.env.bus
        if self.scheme is CommitScheme.O2PC and not state.real_action:
            # The O2PC move: locally commit, release every lock at once.
            self.site.ltm.local_commit(txn_id)
            if bus.enabled:
                bus.publish(LocallyCommitted(
                    txn_id=txn_id, site_id=self.site.site_id,
                ))
        else:
            # Distributed 2PL (or a real-action site): prepare, hold locks.
            self.site.ltm.prepare(txn_id)
            if bus.enabled:
                bus.publish(Prepared(
                    txn_id=txn_id, site_id=self.site.site_id,
                ))
        self._mark(self.marking.on_vote_commit, txn_id)
        state.voted = "YES"
        self._reply(
            msg, MsgType.VOTE, {"vote": "YES"}, self.site.wal.cover(txn_id),
        )
        return
        yield  # pragma: no cover - make this handler a generator

    # -- DECISION --------------------------------------------------------------------

    def _handle_decision(self, msg: Message):
        txn_id = msg.txn_id
        decision = msg.payload["decision"]
        state = self.subtxns.get(txn_id)
        if state is None or state.decided is not None:
            # Duplicate decision (coordinator retransmission): just ACK.
            self._ack(msg, False)
            return
        state.decided = decision
        state.decided_at = self.env.now
        status = self.site.ltm.status.get(txn_id)
        bus = self.env.bus

        if decision == "COMMIT":
            if state.recovered and status is TxnStatus.PREPARED:
                # The crash wiped the volatile updates: redo from the log.
                self.site.ltm.commit_recovered(txn_id)
            else:
                self.site.ltm.complete_commit(txn_id)
            self._mark(self.marking.on_decision_commit, txn_id)
            if bus.enabled:
                bus.publish(DecisionApplied(
                    txn_id=txn_id, site_id=self.site.site_id,
                    decision=decision, compensated=False,
                ))
            self._ack(msg, False)
            return

        # ABORT decision.
        if state.recovered and status is TxnStatus.PREPARED:
            self.site.ltm.abort_recovered(txn_id)
            # A recovered in-doubt site under O2PC is a prepared
            # real-action site, restored locally committed: the abort's
            # nothing-to-undo is its CT_ik (R2).
            self._mark(self.marking.on_decision_abort_compensated, txn_id)
            if bus.enabled:
                bus.publish(DecisionApplied(
                    txn_id=txn_id, site_id=self.site.site_id,
                    decision=decision, compensated=False,
                ))
            self._ack(msg, False)
            return
        if status is TxnStatus.LOCALLY_COMMITTED:
            # Updates are exposed: semantic undo via the compensating
            # subtransaction, scheduled as a local transaction.
            yield from self.compensator.run(txn_id)
            state.compensated = True
            self._mark(self.marking.on_decision_abort_compensated, txn_id)
        elif status in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
            # Locks still held: standard roll-back (the degenerate CT_ik).
            self.site.ltm.rollback_subtxn(txn_id)
            # A prepared real-action site was marked locally committed at
            # vote time; an unvoted one goes straight to undone.
            self._mark(
                self.marking.on_decision_abort_compensated
                if state.voted == "YES" else self.marking.on_vote_abort,
                txn_id,
            )
        if bus.enabled:
            bus.publish(DecisionApplied(
                txn_id=txn_id, site_id=self.site.site_id,
                decision=decision, compensated=state.compensated,
            ))
        self._ack(msg, state.compensated)

    # -- crash / recovery -----------------------------------------------------------------

    def crash(self) -> None:
        """The site crashed: volatile state is gone.

        The network already drops this site's messages; protocol state
        (``subtxns``) is wiped along with the site's store and lock table.
        The write-ahead log survives and drives :meth:`recover`.
        """
        bus = self.env.bus
        if bus.enabled:
            bus.publish(SiteCrashed(site_id=self.site.site_id))
        # Kill handlers suspended mid-protocol: their lock waits and undo
        # programs died with the volatile state.  ``defused`` keeps the
        # resulting ProcessInterrupted from surfacing as an unhandled
        # failure in the kernel.
        for proc in list(self._handlers):
            if proc.is_alive and proc is not self.env.active_process:
                proc.defused = True
                proc.interrupt(cause=f"site {self.site.site_id} crashed")
        self._handlers.clear()
        # The crash rolls back every unvoted subtransaction: that roll-back
        # is its degenerate CT_ik, so R2's undone mark fires now.  (Its
        # ABORT decision will find no state and only be acknowledged.)
        for txn_id in sorted(self.subtxns):
            if self.site.ltm.is_active(txn_id):
                self._mark(self.marking.on_vote_abort, txn_id)
        self.site.crash()
        self.subtxns.clear()

    def recover(self):
        """Restart the site from its log (generator; run in a process).

        Rebuilds protocol state for every transaction the log says is
        unresolved:

        * *in-doubt* (prepared under 2PL, no decision): re-acquire its
          write locks and wait for the coordinator's (re)transmitted
          decision — the blocking the paper's introduction decries;
        * *locally committed* (O2PC): its updates were redone by restart
          recovery (local commitment exposed them); await the decision and
          compensate on ABORT exactly as if the crash never happened.
        """
        report = self.site.restart()
        bus = self.env.bus
        if bus.enabled:
            bus.publish(SiteRecovered(
                site_id=self.site.site_id,
                in_doubt=tuple(sorted(report.in_doubt)),
                locally_committed=tuple(sorted(report.locally_committed)),
            ))
        for txn_id in report.in_doubt:
            state = _SubtxnState(
                txn_id=txn_id, ops=[], vote_policy=VotePolicy.AUTO,
                real_action=False, executed=True, voted="YES",
                recovered=True,
            )
            self.subtxns[txn_id] = state
            yield from self.site.ltm.recover_in_doubt(txn_id)
            # An in-doubt site under O2PC is a prepared real-action site:
            # its YES vote marked it locally committed.
            self._mark(self.marking.restore_locally_committed, txn_id)
        for txn_id in report.locally_committed:
            state = _SubtxnState(
                txn_id=txn_id, ops=[], vote_policy=VotePolicy.AUTO,
                real_action=False, executed=True, voted="YES",
            )
            self.subtxns[txn_id] = state
            self.site.ltm.recover_locally_committed(txn_id)
            # Re-derive the marking the crash wiped (no-op in the sim,
            # whose directory survives): the decision's transition must
            # fire from LOCALLY_COMMITTED.
            self._mark(self.marking.restore_locally_committed, txn_id)
        return report

    # -- autonomy ------------------------------------------------------------------------

    def unilateral_abort(self, txn_id: str) -> bool:
        """Locally abort a subtransaction before it votes (site autonomy).

        Returns True if the abort took effect; False when the transaction
        already voted or terminated here (O2PC: after the YES vote the
        outcome is the coordinator's to decide — but the site regains
        control of its resources immediately, which is the point).
        """
        state = self.subtxns.get(txn_id)
        if state is None or state.voted is not None:
            return False
        if not self.site.ltm.is_active(txn_id):
            return False
        self.site.ltm.rollback_subtxn(txn_id)
        self._mark(self.marking.on_vote_abort, txn_id)
        state.executed = False
        return True

    # -- helpers -------------------------------------------------------------------------

    def _mark(
        self, transition: Callable[[str, str], None], txn_id: str
    ) -> None:
        """Fire one Figure 2 marking transition for ``txn_id`` here.

        Every marking transition at a participant goes through this gate.
        Marks exist to keep O2PC's *exposed* updates consistent (Section
        6); the 2PL family exposes nothing, so it marks nothing.  A NO
        voter marked while its prepared peers roll back unmarked would
        leave a mark that no clearing rule can drain.
        """
        if self.scheme is CommitScheme.O2PC:
            transition(txn_id, self.site.site_id)

    def _reply(
        self, msg: Message, msg_type: MsgType, payload: dict[str, Any],
        covers: Cover | None = None,
    ) -> None:
        reply = msg.reply(msg_type, payload)
        reply.covers = covers
        self.network.send(reply)

    def _ack(self, msg: Message, compensated: bool) -> None:
        """ACK a decision: a COMMIT's ACK is stamped with the transaction's
        end record here, which must be a durable COMMIT."""
        self._reply(
            msg, MsgType.ACK, {"compensated": compensated},
            self.site.wal.cover(msg.txn_id)
            if msg.payload["decision"] == "COMMIT" else PRESUMED_ABORT,
        )
