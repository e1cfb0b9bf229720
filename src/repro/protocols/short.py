"""Short-Commit: early lock release with commit dependencies.

O2PC's closest cousin attacks the same blocking window from the other
side: where O2PC *locally commits* at the YES vote and pays with a
compensating subtransaction on ABORT, Short-Commit merely *prepares*
(force-log, like 2PC) but releases every lock anyway — exposing its
uncommitted updates.  A later transaction that reads or overwrites exposed
data does not block and does not compensate; it records a **commit
dependency** on the exposer and defers its own YES vote until that
dependency resolves:

* dependency COMMITs → the dependent votes normally;
* dependency ABORTs → the dependent is **cascade-aborted** (rolled back
  *before* the dependency itself, so the undo chain restores before-images
  in the right order: the dependent's undo re-installs the dependency's
  after-image, the dependency's undo then restores the original);
* dependency still undecided after ``short_dependency_timeout`` → the
  dependent gives up and votes NO (breaks cross-site dependency cycles).

No new message types (the same claim the paper makes for O2PC) and no
compensation machinery — the cost moves from compensating actions to
cascades and vote latency, which is exactly what ``repro compare``
measures head-to-head.
"""

from __future__ import annotations

from typing import Any

from repro.commit.participant import Participant
from repro.net.message import Message, MsgType
from repro.obs.events import Prepared, SubtxnFailed
from repro.txn.operations import ReadOp
from repro.txn.transaction import VotePolicy

#: polling granularity of the dependency wait at vote time
_DEP_POLL = 0.5


class ShortParticipant(Participant):
    """One site's Short-Commit engine.

    The coordinator side is the unmodified 2PC coordinator — all the
    scheme's behavior is participant-local, which is why the engine
    registers the base coordinator class.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: txn → keys it exposed at its YES vote (prepared, undecided)
        self._exposed_keys: dict[str, set[str]] = {}
        #: key → the txn currently exposing it
        self._exposed_by: dict[str, str] = {}
        #: txn → the exposers it commit-depends on (vote gate)
        self._deps: dict[str, set[str]] = {}
        #: txns rolled back by a cascade (their vote handlers reply NO
        #: without rolling back again)
        self._cascade_aborted: set[str] = set()

    # -- SUBTXN_REQ ---------------------------------------------------------------

    def _handle_subtxn(self, msg: Message) -> Any:
        reused = self.site.wal.knows(msg.txn_id)  # refused by the base handler
        yield from super()._handle_subtxn(msg)
        state = self.subtxns.get(msg.txn_id)
        if reused or state is None or not state.executed:
            return
        # Record commit dependencies after execution: strict 2PL ordering
        # means any key this subtransaction touched that is exposed *now*
        # was exposed before the access (an exposer's lock release is what
        # made the access possible), and every declared key has been
        # accessed (execution is complete).
        deps: set[str] = set()
        for op in state.ops:
            exposer = self._exposed_by.get(op.key)
            if exposer is not None and exposer != msg.txn_id:
                deps.add(exposer)
        deps = {d for d in sorted(deps) if self._dep_pending(d)}
        if deps:
            self._deps[msg.txn_id] = deps

    def _dep_pending(self, txn_id: str) -> bool:
        """True while an exposer's global outcome is still unknown."""
        state = self.subtxns.get(txn_id)
        return (
            state is not None
            and state.voted == "YES"
            and state.decided is None
            and txn_id in self._exposed_keys
        )

    # -- VOTE_REQ -----------------------------------------------------------------

    def _handle_vote_req(self, msg: Message) -> Any:
        txn_id = msg.txn_id
        state = self.subtxns.get(txn_id)
        transmarks: set[str] = set(msg.payload.get("transmarks", ()))

        # The vote gate: wait for every commit dependency to resolve.
        dep_ok = True
        if state is not None and state.executed:
            deadline = self.env.now + self.commit.short_dependency_timeout
            while True:
                if txn_id in self._cascade_aborted:
                    dep_ok = False
                    break
                pending = sorted(
                    d for d in self._deps.get(txn_id, set())
                    if self._dep_pending(d)
                )
                if not pending:
                    break
                if self.env.now >= deadline:
                    # A cross-site dependency cycle (two exposers each
                    # waiting on the other's outcome) resolves here: both
                    # time out and vote NO.
                    dep_ok = False
                    break
                yield self.env.timeout(_DEP_POLL)

        can_commit = (
            dep_ok
            and state is not None
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
            self._deps.pop(txn_id, None)
            self._reply(msg, MsgType.VOTE, {"vote": "NO"})
            return

        assert state is not None
        # The Short-Commit move: force-log the prepare like 2PC, then
        # release *every* lock — successors see the uncommitted updates
        # and record a dependency instead of blocking.
        self.site.ltm.prepare(txn_id)
        self.site.locks.release_all(txn_id)
        exposed = {
            op.key for op in state.ops if not isinstance(op, ReadOp)
        }
        self._exposed_keys[txn_id] = exposed
        for key in sorted(exposed):
            self._exposed_by[key] = txn_id
        bus = self.env.bus
        if bus.enabled:
            bus.publish(Prepared(txn_id=txn_id, site_id=self.site.site_id))
        state.voted = "YES"
        self._reply(
            msg, MsgType.VOTE, {"vote": "YES"}, self.site.wal.cover(txn_id),
        )

    # -- DECISION -----------------------------------------------------------------

    def _handle_decision(self, msg: Message) -> Any:
        txn_id = msg.txn_id
        state = self.subtxns.get(txn_id)
        if state is not None and state.decided is None:
            if msg.payload["decision"] == "ABORT":
                # Cascade FIRST: dependents' undo must restore their
                # before-images (this transaction's after-images) before
                # this transaction's own undo restores the originals.
                self._cascade_abort(txn_id)
            self._resolve(txn_id)
        yield from super()._handle_decision(msg)

    def _cascade_abort(self, txn_id: str) -> None:
        """Roll back every active transaction that touched data ``txn_id``
        exposed.

        Dependents are necessarily still ACTIVE (exposure requires a YES
        vote, and the vote gate blocks a dependent's vote until its
        dependencies resolve), so a plain roll-back suffices — no
        transitive cascade is possible.  A dependent blocked on a lock
        inside ``run_ops`` is unwound through the same
        ``TransactionAborted`` path an abort decision uses.
        """
        exposed = self._exposed_keys.get(txn_id, set())
        if not exposed:
            return
        bus = self.env.bus
        for other_id in sorted(self.subtxns):
            if other_id == txn_id or other_id in self._cascade_aborted:
                continue
            other = self.subtxns[other_id]
            if other.voted is not None or other.decided is not None:
                continue
            if not self.site.ltm.is_active(other_id):
                continue
            touched = {op.key for op in other.ops}
            if not (touched & exposed):
                continue
            self._cascade_aborted.add(other_id)
            self.site.ltm.rollback_subtxn(other_id)
            other.executed = False
            self._deps.pop(other_id, None)
            if bus.enabled:
                bus.publish(SubtxnFailed(
                    txn_id=other_id, site_id=self.site.site_id,
                    reason=f"cascade abort (dependency {txn_id} aborted)",
                ))

    def _resolve(self, txn_id: str) -> None:
        """Clear ``txn_id``'s exposure and release its dependents' gate."""
        for key in sorted(self._exposed_keys.pop(txn_id, set())):
            if self._exposed_by.get(key) == txn_id:
                del self._exposed_by[key]
        for deps in self._deps.values():
            deps.discard(txn_id)
        self._deps.pop(txn_id, None)

    # -- crash / recovery ---------------------------------------------------------

    def crash(self) -> None:
        super().crash()
        self._exposed_keys.clear()
        self._exposed_by.clear()
        self._deps.clear()
        self._cascade_aborted.clear()

    # recover() is inherited unchanged: a prepared Short-Commit
    # transaction restarts *in doubt* and conservatively re-acquires its
    # write locks (its pre-crash dependents died with the site, so no
    # exposure tracking survives — blocking until the decision is the safe
    # post-crash behavior, and the recovery oracle's WAL replay holds).
