"""Building and running compensating subtransactions.

When an O2PC participant receives an ABORT decision for a transaction it
locally committed, it invokes the compensating subtransaction ``CT_ij``
(Section 2).  This executor:

* builds the compensation's operations from the WAL's ``UPDATE`` records —
  the semantic inverse of each logged forward operation (restricted model),
  a before-image restoring write for each generic one (generic model) — so
  ``CT_i`` writes at least every item ``T_i`` wrote, satisfying Theorem 2's
  precondition, and is built the same way after a crash as before one;
* runs the compensation **as a local transaction** under local strict 2PL
  (Section 3.2) — it acquires its own locks, because the forward
  transaction's locks were released at vote time and other transactions may
  have touched the data since;
* enforces *persistence of compensation*: a compensation chosen as a
  deadlock victim (or otherwise transiently failed) is retried until it
  commits.  It cannot be aborted permanently — initiating it parallels the
  irreversible decision to abort the forward transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import DeadlockDetected, PersistenceViolation
from repro.ids import compensation_id
from repro.obs.events import CompensationFinished, CompensationStarted
from repro.txn.operations import Op, WriteOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (Site imports us)
    from repro.txn.site import Site


@dataclass
class CompensationStats:
    """Counters for the metrics layer."""

    started: int = 0
    completed: int = 0
    retries: int = 0
    #: simulation times: (ct_id, start, end)
    log: list[tuple[str, float, float]] = field(default_factory=list)


class CompensationExecutor:
    """Builds and persistently executes compensating subtransactions."""

    #: retries beyond this count indicate a livelock in the host setup —
    #: persistence of compensation is violated rather than looping forever.
    MAX_RETRIES = 1000

    def __init__(
        self, site: "Site", retry_delay: float = 1.0,
        lock_marks: bool = False,
    ) -> None:
        self.site = site
        self.retry_delay = retry_delay
        #: when the marking set is a lockable database item, rule R2's
        #: update of ``sitemarks.k`` is the compensation's last write —
        #: the access pattern behind the Section 6.2 deadlock remark
        self.lock_marks = lock_marks
        self.stats = CompensationStats()

    # -- building --------------------------------------------------------------

    def build_ops(self, txn_id: str) -> list[Op]:
        """Operations of ``CT_ij`` for the locally-committed ``txn_id``:
        the site's undo program for it (``ltm.undo_program``: one step per
        forward update, newest first, rebuilt from the log)."""
        ops = self.site.ltm.undo_program(txn_id)
        if self.lock_marks:
            from repro.core.marks import MARKS_KEY

            # Rule R2 as the last operation of CT_ik.
            ops.append(WriteOp(key=MARKS_KEY, value=txn_id))
        return ops

    # -- running ----------------------------------------------------------------

    def run(self, txn_id: str):
        """Run ``CT_ij`` to completion (generator; run inside a process).

        Returns the compensation id.  Retries on deadlock victimization
        (persistence of compensation); raises
        :class:`~repro.errors.PersistenceViolation` only after an
        implausible number of attempts, to surface configuration bugs.
        """
        ct_id = compensation_id(txn_id)
        ops = self.build_ops(txn_id)
        ltm = self.site.ltm
        self.stats.started += 1
        started_at = self.site.env.now
        bus = self.site.env.bus
        if bus.enabled:
            bus.publish(CompensationStarted(
                txn_id=txn_id, ct_id=ct_id, site_id=self.site.site_id,
            ))

        attempts = 0
        while True:
            attempts += 1
            if attempts > self.MAX_RETRIES:
                raise PersistenceViolation(
                    f"{ct_id} failed {self.MAX_RETRIES} times at "
                    f"{self.site.site_id}"
                )
            try:
                ltm.begin(ct_id)
                yield from ltm.run_ops(ct_id, ops)
                ltm.commit(ct_id)
                break
            except DeadlockDetected:
                # The compensation lost a deadlock: undo this attempt and
                # retry after a back-off.  (abort_local expunges the failed
                # attempt from the history, so only the successful run
                # appears in the SG.)
                ltm.abort_local(ct_id)
                self.stats.retries += 1
                yield self.site.env.timeout(self.retry_delay)

        ltm.mark_compensated(txn_id)
        self.stats.completed += 1
        self.stats.log.append((ct_id, started_at, self.site.env.now))
        if bus.enabled:
            bus.publish(CompensationFinished(
                txn_id=txn_id, ct_id=ct_id, site_id=self.site.site_id,
                retries=attempts - 1,
            ))
        return ct_id
