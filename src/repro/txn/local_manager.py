"""The local transaction manager: strict 2PL execution at one site.

All transaction classes run through this manager — independent local
transactions, subtransactions of global transactions, and compensating
subtransactions (which the paper mandates are scheduled *as local
transactions*, Section 3.2).  The differences between them live entirely in
the termination paths:

* local transactions: :meth:`commit` (release at commit — strict 2PL);
* subtransactions under distributed 2PL: :meth:`prepare` then
  :meth:`complete_commit` / :meth:`rollback_subtxn` on the decision;
* subtransactions under O2PC: :meth:`local_commit` at vote time (early
  release), then :meth:`complete_commit` on COMMIT or a compensating
  subtransaction on ABORT;
* rollback of a subtransaction is *recorded in the history as its
  compensating transaction* ``CT_i`` — the paper models standard roll-back
  as the degenerate case of compensation.

Execution methods are generators: they yield lock events and must run inside
a simulation process.  :class:`~repro.errors.DeadlockDetected` propagates to
the caller, which decides whether to abort (local transactions, forward
subtransactions) or retry (compensations — persistence of compensation).

Every termination path ends in a forced WAL append (``force=True``): its
record is durable when the method returns, so a message sent after it may
reveal it.  The simulated network checks that for each revealing message
(:data:`repro.net.message.COVERING`), and
``tests/txn/test_force_points.py`` drives each of these methods and
checks its record's durability.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import InvalidTransactionState, TransactionAborted
from repro.ids import compensation_id
from repro.locking.modes import LockMode
from repro.storage.kvstore import TOMBSTONE
from repro.storage.wal import RecordType
from repro.txn.operations import Op, ReadOp, SemanticOp, WriteOp
from repro.txn.transaction import TxnStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.site import Site


class LocalTransactionManager:
    """Executes transactions against one site under strict 2PL."""

    def __init__(self, site: "Site") -> None:
        self.site = site
        #: current status of every transaction seen at this site
        self.status: dict[str, TxnStatus] = {}
        #: values returned by reads, per transaction (for workloads)
        self.read_results: dict[str, dict[str, Any]] = {}

    # -- life cycle ------------------------------------------------------------

    def begin(self, txn_id: str) -> None:
        """Start a transaction at this site."""
        if self.status.get(txn_id) is TxnStatus.ACTIVE:
            raise InvalidTransactionState(f"{txn_id} already active")
        # The checkpoint trigger: here no handler is between a settling
        # record and the reply that reveals it.
        self.site.maybe_checkpoint()
        self.site.wal.append(RecordType.BEGIN, txn_id)
        self.status[txn_id] = TxnStatus.ACTIVE
        self.read_results[txn_id] = {}

    def is_active(self, txn_id: str) -> bool:
        """True while the transaction may execute operations here."""
        return self.status.get(txn_id) is TxnStatus.ACTIVE

    # -- operation execution -----------------------------------------------------

    def execute(self, txn_id: str, op: Op):
        """Execute one operation (generator; yields lock events).

        Raises :class:`DeadlockDetected` if this transaction is chosen as a
        deadlock victim while blocked.
        """
        if not self.is_active(txn_id):
            raise InvalidTransactionState(
                f"{txn_id} is {self.status.get(txn_id)} at {self.site.site_id}"
            )
        if isinstance(op, ReadOp):
            yield from self._acquire(txn_id, op.key, LockMode.S)
            value = self.site.store.get_or(op.key)
            self.site.history.read(txn_id, op.key)
            self.read_results[txn_id][op.key] = value
            return value
        if isinstance(op, WriteOp):
            yield from self._acquire(txn_id, op.key, LockMode.X)
            self._logged_write(txn_id, op.key, op.value)
            return op.value
        if isinstance(op, SemanticOp):
            yield from self._acquire(txn_id, op.key, LockMode.X)
            before = self.site.store.get_or(op.key)
            self.site.history.read(txn_id, op.key)
            after = self.site.registry.apply(op, before)
            if self.site.registry.is_compensatable(op):
                # Build the inverse now and drop it: an inverse constructor
                # that raises fails the forward operation, before any vote,
                # never a compensation.  undo_program rebuilds it from the log.
                self.site.registry.invert(op, before)
            self._logged_write(txn_id, op.key, after, op)
            return after
        raise TypeError(f"unknown operation {op!r}")

    def _acquire(self, txn_id: str, key: str, mode: LockMode):
        """Acquire a lock, wait out the processing time, and re-check that
        the transaction is still alive (generator).

        While blocked, the transaction may have been rolled back by an
        abort decision; a request granted in the same instant must not let
        the dead transaction keep executing — the roll-back already
        released everything, so the only correct move is to unwind.
        """
        yield self.site.locks.acquire(txn_id, key, mode)
        yield from self._work()
        if not self.is_active(txn_id):
            raise TransactionAborted(
                txn_id, f"rolled back while blocked on {key}"
            )

    def _work(self):
        """Simulated per-operation processing time (generator)."""
        if self.site.op_duration > 0:
            yield self.site.env.timeout(self.site.op_duration)

    def run_ops(self, txn_id: str, ops: Sequence[Op]):
        """Execute a sequence of operations in order (generator)."""
        results = []
        for op in ops:
            result = yield from self.execute(txn_id, op)
            results.append(result)
        return results

    def _logged_write(
        self, txn_id: str, key: str, value: Any, op: SemanticOp | None = None,
    ) -> None:
        """Log, then apply, one update; ``None`` deletes the key, logged
        as a ``TOMBSTONE`` after-image so restart redo deletes it too."""
        after = TOMBSTONE if value is None else value
        self.site.wal.append(
            RecordType.UPDATE, txn_id, key=key,
            before=self.site.store.snapshot_value(key), after=after, op=op,
        )
        if value is None:
            self.site.store.delete(key)
        else:
            self.site.store.put(key, value)
        self.site.history.write(txn_id, key)

    # -- termination: local transactions --------------------------------------------

    def commit(self, txn_id: str) -> None:
        """Commit a local transaction: log, record, release (strict 2PL)."""
        self._require_active(txn_id)
        self.site.wal.append(RecordType.COMMIT, txn_id, force=True)
        self.site.history.commit(txn_id)
        self.site.locks.release_all(txn_id)
        self._terminate(txn_id, TxnStatus.COMMITTED)

    def abort_local(self, txn_id: str) -> None:
        """Abort a local transaction: plain undo, expunged from the SG.

        Strict 2PL guarantees nothing read the undone updates, so the
        history simply forgets the transaction (committed projection).
        """
        self._require_active(txn_id)
        self.site.locks.cancel(txn_id)
        for record in reversed(self.site.wal.updates_for(txn_id)):
            assert record.key is not None
            self.site.store.apply_image(record.key, record.before)
        self.site.wal.append(RecordType.ABORT, txn_id, force=True)
        self.site.history.expunge(txn_id)
        self.site.locks.release_all(txn_id)
        self._terminate(txn_id, TxnStatus.ABORTED)

    # -- termination: subtransactions ----------------------------------------------

    def prepare(self, txn_id: str, release_read_locks: bool = True) -> None:
        """Enter the prepared state (standard 2PC YES vote): force-log,
        keep the write locks.

        Shared locks may be dropped now — the paper's Section 2: "It is
        possible to release the shared (i.e., read) locks as soon as the
        VOTE-REQ message is received."  Only exclusive locks must survive
        to the decision (cascading-abort avoidance concerns writes only).
        """
        self._require_active(txn_id)
        self.site.wal.append(RecordType.PREPARE, txn_id, force=True)
        self.status[txn_id] = TxnStatus.PREPARED
        if release_read_locks:
            for key, mode in sorted(self.site.locks.locks_of(txn_id).items()):
                if mode is LockMode.S:
                    self.site.locks.release(txn_id, key)

    def local_commit(self, txn_id: str) -> None:
        """O2PC YES vote: locally commit and release all locks at once."""
        self._require_active(txn_id)
        self.site.wal.append(RecordType.PREPARE, txn_id, force=True)
        self.site.wal.append(RecordType.LOCAL_COMMIT, txn_id, force=True)
        self.site.history.commit(txn_id)
        self.status[txn_id] = TxnStatus.LOCALLY_COMMITTED
        self.site.locks.release_all(txn_id)

    def complete_commit(self, txn_id: str) -> None:
        """Apply a global COMMIT decision.

        Under distributed 2PL this is the point where locks are finally
        released; under O2PC the locks are already gone and only the log
        record and status change remain.
        """
        status = self.status.get(txn_id)
        if status is TxnStatus.PREPARED:
            self.site.history.commit(txn_id)
            self.site.locks.release_all(txn_id)
        elif status is not TxnStatus.LOCALLY_COMMITTED:
            raise InvalidTransactionState(
                f"cannot commit {txn_id} in state {status}"
            )
        self.site.wal.append(RecordType.COMMIT, txn_id, force=True)
        self._terminate(txn_id, TxnStatus.COMMITTED)

    def rollback_subtxn(self, txn_id: str) -> str:
        """Undo a not-yet-locally-committed subtransaction.

        The roll-back is the degenerate compensating subtransaction
        ``CT_i`` (Section 3.2): its restoring writes are recorded in the
        history under the compensation id, which the SG layer then
        serializes after ``T_i``.  Returns the compensation id.
        """
        status = self.status.get(txn_id)
        if status not in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
            raise InvalidTransactionState(
                f"cannot roll back {txn_id} in state {status}"
            )
        ct_id = compensation_id(txn_id)
        self.site.locks.cancel(txn_id)
        updates = self.site.wal.updates_for(txn_id)
        if updates or self.site.marks_key:
            self.site.wal.append(RecordType.BEGIN, ct_id)
            for record in reversed(updates):
                assert record.key is not None
                self._undo_write(ct_id, record.key, record.before)
            if self.site.marks_key:
                # Rule R2: updating sitemarks.k is the last operation of
                # CT_ik.  The roll-back runs under the forward
                # transaction's locks, so the write is recorded directly;
                # its conflicts give Lemma 5 its CT_i -> T_j edges when the
                # marking sets are locked data items.
                self.site.history.write(ct_id, self.site.marks_key)
            self.site.wal.append(RecordType.COMMIT, ct_id, force=True)
            self.site.history.commit(ct_id)
            self.status[ct_id] = TxnStatus.COMMITTED
        self.site.wal.append(RecordType.ABORT, txn_id, force=True)
        self.site.history.abort(txn_id)
        self.site.locks.release_all(txn_id)
        self._terminate(txn_id, TxnStatus.ABORTED)
        return ct_id

    def _undo_write(self, ct_id: str, key: str, image: Any) -> None:
        """One restoring write of a roll-back, recorded under the CT id.

        The undo happens under the *forward* transaction's locks (still
        held), so no locks are acquired for ``ct_id`` here.
        """
        before = self.site.store.snapshot_value(key)
        self.site.wal.append(
            RecordType.UPDATE, ct_id, key=key, before=before, after=image,
        )
        self.site.store.apply_image(key, image)
        self.site.history.write(ct_id, key)

    # -- crash recovery: in-doubt and locally-committed transactions -------------

    def recover_in_doubt(self, txn_id: str):
        """Re-install a prepared transaction after a crash (generator).

        A restarted participant must honor its YES vote: it re-acquires
        exclusive locks on every item the transaction updated (from the
        log's undo chain) and waits for the coordinator's decision.  The
        lock table is empty right after restart, so the grants are
        immediate unless another recovered transaction claimed a key first.
        """
        self.status[txn_id] = TxnStatus.PREPARED
        keys = sorted({
            record.key for record in self.site.wal.updates_for(txn_id)
            if record.key is not None
        })
        for key in keys:
            yield self.site.locks.acquire(txn_id, key, LockMode.X)

    def recover_locally_committed(self, txn_id: str) -> None:
        """Re-install an O2PC locally-committed transaction after a crash.

        Restart recovery already redid its updates (local commitment made
        them durable obligations); no locks are due — the site only awaits
        the decision, compensating on ABORT as usual.
        """
        self.status[txn_id] = TxnStatus.LOCALLY_COMMITTED

    def commit_recovered(self, txn_id: str) -> None:
        """COMMIT decision for a recovered in-doubt transaction.

        The restart pass did not redo in-doubt updates (their fate was
        unknown); apply the after-images now, then finalize.
        """
        if self.status.get(txn_id) is not TxnStatus.PREPARED:
            raise InvalidTransactionState(
                f"{txn_id} is not a recovered in-doubt transaction"
            )
        for record in self.site.wal.updates_for(txn_id):
            assert record.key is not None
            self.site.store.apply_image(record.key, record.after)
        self.site.wal.append(RecordType.COMMIT, txn_id, force=True)
        self.site.locks.release_all(txn_id)
        self._terminate(txn_id, TxnStatus.COMMITTED)

    def abort_recovered(self, txn_id: str) -> None:
        """ABORT decision for a recovered in-doubt transaction.

        The wiped store never got the updates back, so there is nothing to
        undo — log the abort and free the re-acquired locks.
        """
        if self.status.get(txn_id) is not TxnStatus.PREPARED:
            raise InvalidTransactionState(
                f"{txn_id} is not a recovered in-doubt transaction"
            )
        self.site.wal.append(RecordType.ABORT, txn_id, force=True)
        self.site.history.abort(txn_id)
        self.site.locks.release_all(txn_id)
        self._terminate(txn_id, TxnStatus.ABORTED)

    # -- compensation support -------------------------------------------------------

    def undo_program(self, txn_id: str) -> list[Op]:
        """The transaction's undo program, in application (newest-first) order.

        Rebuilt from the log's ``UPDATE`` records, one step per forward
        update: the registered inverse where the record names a
        compensatable operation, a before-image write otherwise.  Undoing
        every update in reverse stays correct when semantic and generic
        updates interleave on the same key, and the log survives a crash,
        so a restarted site compensates semantically too.
        """
        registry = self.site.registry
        program: list[Op] = []
        for record in reversed(self.site.wal.updates_for(txn_id)):
            before = None if record.before is TOMBSTONE else record.before
            op = record.op
            if op is not None and registry.is_compensatable(op):
                program.append(registry.invert(op, before))
            else:
                assert record.key is not None
                program.append(WriteOp(record.key, before))
        return program

    def mark_compensated(self, txn_id: str) -> None:
        """Record that the locally-committed ``txn_id`` was compensated-for."""
        self.site.wal.append(
            RecordType.COMPENSATION, txn_id, force=True
        )
        self.site.wal.append(RecordType.ABORT, txn_id, force=True)
        self._terminate(txn_id, TxnStatus.COMPENSATED)

    # -- crash support -----------------------------------------------------------------

    def abandon_all(self) -> None:
        """Drop in-flight transactions after a crash (their undo happens in
        restart recovery, not here).

        ACTIVE transactions' recorded operations are expunged from the
        history: strict 2PL guarantees nothing read their updates (locks
        were held until the crash destroyed them), so the crash leaves the
        committed projection as if they never executed — which is exactly
        what restart recovery makes true in the store.  PREPARED
        transactions keep their operations: they are in-doubt and may yet
        commit.
        """
        for txn_id, status in list(self.status.items()):
            if status is TxnStatus.ACTIVE:
                self.site.history.expunge(txn_id)
            if status in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
                self._terminate(txn_id, TxnStatus.ABORTED)

    def forget(self, txn_ids: list[str]) -> None:
        """Drop the status and reads of transactions a checkpoint settled
        (their records are gone; the log's settled-id table answers)."""
        for txn_id in txn_ids:
            self.status.pop(txn_id, None)
            self.read_results.pop(txn_id, None)

    # -- helpers --------------------------------------------------------------------------

    def _terminate(self, txn_id: str, status: TxnStatus) -> None:
        """Enter a terminal ``status`` and drop the lock table's
        shrink-phase entry — so every caller releases its locks first.
        (``read_results`` stays until a checkpoint settles the id;
        workloads read it after commit.)"""
        self.status[txn_id] = status
        self.site.locks.forget(txn_id)

    def _require_active(self, txn_id: str) -> None:
        if not self.is_active(txn_id):
            raise InvalidTransactionState(
                f"{txn_id} is {self.status.get(txn_id)} at {self.site.site_id}"
            )
