"""Transaction specifications, statuses, and outcomes.

A global transaction is submitted as a :class:`GlobalTxnSpec`: one
:class:`SubtxnSpec` per site (Section 3.1).  Specs also carry test/benchmark
hooks — a forced vote per site (to inject abort votes deterministically) and
a ``real_action`` flag marking non-compensatable subtransactions (Section 2:
such sites must hold locks until the decision, as in distributed 2PL).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.txn.operations import Op


class TxnStatus(enum.Enum):
    """Life-cycle states of a (sub)transaction."""

    ACTIVE = "ACTIVE"
    #: voted YES under standard 2PC; locks held awaiting decision
    PREPARED = "PREPARED"
    #: voted YES under O2PC; locks released, updates exposed
    LOCALLY_COMMITTED = "LOCALLY_COMMITTED"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"
    #: locally committed, then the global decision was ABORT and the
    #: compensating subtransaction has completed
    COMPENSATED = "COMPENSATED"


class VotePolicy(enum.Enum):
    """How a participant votes for a subtransaction (test/workload hook)."""

    #: vote YES if execution succeeded (the normal behavior)
    AUTO = "AUTO"
    #: vote NO regardless (models a unilateral local abort at vote time)
    FORCE_NO = "FORCE_NO"


@dataclass(slots=True)
class SubtxnSpec:
    """One site's share of a global transaction.

    ``ops`` is kept as a tuple (converted once, here): a run keeps every
    submitted spec, and the messages and participants share the tuple
    rather than copy it.
    """

    site_id: str
    ops: Sequence[Op]
    #: non-compensatable subtransaction: locks held until decision
    real_action: bool = False
    vote: VotePolicy = VotePolicy.AUTO

    def __post_init__(self) -> None:
        self.ops = tuple(self.ops)


@dataclass(slots=True)
class GlobalTxnSpec:
    """A global transaction: subtransactions for two or more sites
    (kept as a tuple, converted once, here)."""

    txn_id: str
    subtxns: Sequence[SubtxnSpec] = ()

    def __post_init__(self) -> None:
        self.subtxns = tuple(self.subtxns)
        seen: set[str] = set()
        for sub in self.subtxns:
            if sub.site_id in seen:
                raise ValueError(
                    f"{self.txn_id}: duplicate subtransaction at {sub.site_id}"
                )
            seen.add(sub.site_id)

    @property
    def site_ids(self) -> list[str]:
        """Sites this transaction executes at, in spec order."""
        return [sub.site_id for sub in self.subtxns]


@dataclass(slots=True)
class TxnOutcome:
    """Result of running one global transaction through a commit protocol.

    Captured by the coordinator and consumed by the metrics layer.  The
    site lists are sorted lists when there are any sites, else the
    shared empty tuple: an outcome allocates no empty list.
    """

    txn_id: str
    committed: bool
    #: simulation time the transaction was submitted
    start_time: float = 0.0
    #: time the coordinator reached its decision
    decision_time: float = 0.0
    #: time the transaction fully terminated everywhere (incl. compensation)
    end_time: float = 0.0
    #: sites that voted NO
    no_votes: Sequence[str] = ()
    #: sites where a compensating subtransaction ran
    compensated_sites: Sequence[str] = ()
    #: number of R1 rejections (protocol P1/P2 retries) encountered
    rejections: int = 0

    @property
    def latency(self) -> float:
        """Submission-to-termination latency."""
        return self.end_time - self.start_time
