"""Recovery: crash-restart replay.

:meth:`RecoveryManager.restart` rebuilds the volatile store after a crash:
redo every update of a transaction that reached COMMIT or LOCAL_COMMIT (an
O2PC local commit exposes updates, so they must survive a crash), then undo
every update of a transaction that did not.  Prepared-but-undecided
transactions are reported to the caller: under standard 2PC they must stay
blocked; under O2PC they do not exist (a YES vote locally commits).
Rolling back one live transaction is the local transaction manager's job
(``abort_local``, ``rollback_subtxn``), from the same log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ids import is_coordinator_id
from repro.storage.kvstore import KVStore
from repro.storage.wal import RecordType, WriteAheadLog


@dataclass
class RestartReport:
    """Outcome of a crash-restart recovery pass."""

    #: winners (committed or locally committed), sorted: a checkpoint's
    #: settled ids included, so the report does not depend on truncation
    redone: list[str] = field(default_factory=list)
    undone: list[str] = field(default_factory=list)
    #: prepared (voted YES, no decision logged) — blocked under standard 2PC
    in_doubt: list[str] = field(default_factory=list)
    #: locally committed under O2PC with no decision — await decision, and
    #: compensate (not undo) if the decision turns out to be ABORT
    locally_committed: list[str] = field(default_factory=list)


class RecoveryManager:
    """Undo/redo engine over one site's store and log."""

    def __init__(self, store: KVStore, wal: WriteAheadLog) -> None:
        self.store = store
        self.wal = wal

    # -- crash restart ------------------------------------------------------

    def restart(self) -> RestartReport:
        """Rebuild the (wiped) store from the log.

        The caller is expected to have invoked :meth:`KVStore.wipe` (or the
        failure injector did).  Replays in LSN order: redo updates of
        transactions whose outcome is COMMIT or LOCAL_COMMIT; undo the rest;
        classify undecided prepared transactions as in-doubt.
        """
        report = RestartReport()
        # Start from the latest checkpoint: restore its snapshot, take the
        # outcomes of the ids checkpoints settled from the settled-id
        # table, and replay the records from its low-water on.  A fuzzy
        # checkpoint's low-water is the first record of its oldest open
        # transaction, so the suffix holds every record of every
        # transaction the snapshot does not settle.
        checkpoint = self.wal.last_checkpoint()
        start_lsn = 0
        if checkpoint is not None:
            self.store.restore(checkpoint.payload["snapshot"])
            start_lsn = checkpoint.payload.get("low_water", checkpoint.lsn)

        outcomes: dict[str, RecordType] = {
            txn_id: RecordType.COMMIT if committed else RecordType.ABORT
            for txn_id, committed in self.wal.settled.items()
            if not is_coordinator_id(txn_id)
        }
        suffix = [r for r in self.wal if r.lsn >= start_lsn]
        for record in suffix:
            if record.record_type in (
                RecordType.COMMIT,
                RecordType.ABORT,
                RecordType.LOCAL_COMMIT,
                RecordType.PREPARE,
                RecordType.BEGIN,
            ):
                outcomes[record.txn_id] = self._stronger(
                    outcomes.get(record.txn_id), record.record_type
                )

        # Redo phase: replay after-images of winners in LSN order.
        winners = {
            t for t, o in outcomes.items()
            if o in (RecordType.COMMIT, RecordType.LOCAL_COMMIT)
        }
        for record in suffix:
            if (
                record.record_type is RecordType.UPDATE
                and record.txn_id in winners
            ):
                assert record.key is not None
                self.store.apply_image(record.key, record.after)

        for txn_id, outcome in outcomes.items():
            if outcome is RecordType.LOCAL_COMMIT:
                report.locally_committed.append(txn_id)
            elif outcome is RecordType.PREPARE:
                report.in_doubt.append(txn_id)
            elif outcome is RecordType.BEGIN:
                # Losers: nothing was redone, and the wiped store already
                # reflects "never happened"; log the abort for completeness.
                self.wal.append(RecordType.ABORT, txn_id, force=True)
                report.undone.append(txn_id)
        report.redone = sorted(winners)
        return report

    @staticmethod
    def _stronger(current: RecordType | None, new: RecordType) -> RecordType:
        """Pick the more decisive of two per-transaction record types."""
        order = {
            RecordType.BEGIN: 0,
            RecordType.PREPARE: 1,
            RecordType.LOCAL_COMMIT: 2,
            RecordType.ABORT: 3,
            RecordType.COMMIT: 3,
        }
        if current is None or order[new] >= order[current]:
            return new
        return current
