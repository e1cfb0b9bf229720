"""A site: one autonomous DBMS in the (multi)database system.

``Site`` is a composition root bundling the storage engine, write-ahead log,
lock manager, recovery manager, history recorder, and semantic-operation
registry, plus the :class:`~repro.txn.local_manager.LocalTransactionManager`
that executes transactions against them.

Crash modeling: :meth:`crash` wipes volatile state (store contents, lock
table, in-flight transactions); :meth:`restart` replays the WAL through the
recovery manager.  The WAL itself survives — it is the durable state.
:meth:`maybe_checkpoint` (called where a transaction begins) bounds it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.locking.manager import LockManager
from repro.sg.history import SiteHistory
from repro.sim.engine import Environment
from repro.storage.kvstore import KVStore
from repro.storage.recovery import RecoveryManager, RestartReport
from repro.storage.wal import RecordType, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - cycle guard (compensation imports txn)
    from repro.compensation.actions import ActionRegistry


class Site:
    """One site's full local database system."""

    def __init__(
        self,
        env: Environment,
        site_id: str,
        registry: "ActionRegistry | None" = None,
        enforce_2pl: bool = True,
        op_duration: float = 0.0,
        lock_timeout: float | None = None,
    ) -> None:
        # imported here to break the module cycle: the compensation package
        # imports the txn package for operation types
        from repro.compensation.actions import shared_registry
        from repro.txn.local_manager import LocalTransactionManager

        self.env = env
        self.site_id = site_id
        self.store = KVStore(site_id)
        self.wal = WriteAheadLog(site_id)
        self.locks = LockManager(
            env, site_id, enforce_2pl=enforce_2pl,
            lock_timeout=lock_timeout,
        )
        self.recovery = RecoveryManager(self.store, self.wal)
        self.history = SiteHistory(site_id)
        #: the operation repertoire; without one, the process-wide frozen
        #: standard registry
        self.registry = registry or shared_registry()
        #: simulated processing time per operation (after its lock is held)
        self.op_duration = op_duration
        #: name of the marking-set data item when a marking protocol is
        #: active (None otherwise).  In ``lock_marks`` mode the R1 check
        #: takes a real S lock on it and compensations write it as their
        #: last action (rule R2) — the configuration behind the paper's
        #: Section 6.2 deadlock remark.  The serialization-graph layer
        #: always excludes this key (bookkeeping, not data; see
        #: DESIGN.md §5.3b).
        self.marks_key: str | None = None

        self.ltm = LocalTransactionManager(self)
        #: called with the ids each checkpoint settled (the participant
        #: and coordinator host drop their state for them)
        self.on_checkpoint: list[Callable[[list[str]], None]] = []
        #: crash counter (metrics)
        self.crash_count = 0

    def load(self, data: dict[str, object]) -> None:
        """Install initial database contents: pre-history state, logged
        only as an unforced checkpoint, so a crash restart starts from it
        instead of an empty store."""
        for key, value in data.items():
            self.store.put(key, value)
        self.wal.append(RecordType.CHECKPOINT, "__checkpoint__",
                        snapshot=self.store.snapshot())

    def checkpoint(self) -> list[str]:
        """Take a fuzzy checkpoint (:meth:`WriteAheadLog.checkpoint`) and
        let the per-transaction tables drop what it settled.

        Legal at any time: transactions in flight keep their records.
        Returns the ids whose records it dropped.
        """
        gone = self.wal.checkpoint(self.store.snapshot())
        self.ltm.forget(gone)
        for forget in self.on_checkpoint:
            forget(gone)
        return gone

    def maybe_checkpoint(self) -> None:
        """Checkpoint when that drops more records than it keeps plus
        the snapshot's keys (:meth:`WriteAheadLog.wants_checkpoint`)."""
        if self.wal.wants_checkpoint(len(self.store)):
            self.checkpoint()

    def crash(self) -> None:
        """Lose all volatile state: store contents and the lock table.

        In-flight transactions are implicitly aborted; the WAL survives and
        :meth:`restart` rebuilds from it.
        """
        self.crash_count += 1
        self.store.wipe()
        # The lock table is volatile: rebuild an empty one.  Pending lock
        # waiters are abandoned (their processes are expected to be killed
        # or to time out alongside the crash).  What it recorded is not
        # state but measurement: the new table keeps every hold, wait and
        # deadlock logged before the crash.
        old = self.locks
        self.locks = LockManager(
            self.env, self.site_id, enforce_2pl=old.enforce_2pl,
            lock_timeout=old.lock_timeout,
        )
        self.locks.hold_log = old.hold_log
        self.locks.wait_log = old.wait_log
        self.locks.detector.detected = old.detector.detected
        self.ltm.abandon_all()

    def restart(self) -> RestartReport:
        """Run crash-restart recovery; returns the recovery report."""
        return self.recovery.restart()

    def __repr__(self) -> str:
        return f"<Site {self.site_id}>"
