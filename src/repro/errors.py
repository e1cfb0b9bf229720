"""Exception hierarchy for the O2PC reproduction library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause.  The hierarchy is
organized by subsystem: simulation kernel, storage, locking, transactions,
commit protocols, and the correctness (serialization-graph) layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for simulation-kernel errors."""


class SimulationDeadlock(SimulationError):
    """The event queue drained while processes were still waiting.

    Raised by :meth:`repro.sim.engine.Environment.run` when ``run`` was asked
    to advance but no events remain and at least one process is suspended.
    """


class ProcessInterrupted(SimulationError):
    """Thrown *into* a process generator when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted (cause={cause!r})")
        self.cause = cause



# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network-substrate errors."""


class UnknownSiteError(NetworkError):
    """A message was addressed to a site id not registered on the network."""


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-engine errors."""


class KeyNotFound(StorageError):
    """Read of a key that does not exist and has no default."""

    def __init__(self, key: str) -> None:
        super().__init__(f"key {key!r} not found")
        self.key = key


class WALError(StorageError):
    """Write-ahead-log invariant violation (bad LSN order, truncated record)."""


# ---------------------------------------------------------------------------
# Locking
# ---------------------------------------------------------------------------


class LockError(ReproError):
    """Base class for lock-manager errors."""


class LockNotHeld(LockError):
    """A transaction tried to release/convert a lock it does not hold."""


class DeadlockDetected(LockError):
    """The waits-for graph contains a cycle; the victim must abort.

    ``victim`` names the transaction chosen to abort, ``cycle`` is the list of
    transaction ids forming the cycle in the waits-for graph.
    """

    def __init__(self, victim: str, cycle: list[str]) -> None:
        super().__init__(f"deadlock: victim={victim} cycle={'->'.join(cycle)}")
        self.victim = victim
        self.cycle = cycle


class LockTimeout(LockError):
    """A lock request waited longer than the configured timeout."""


class TwoPhaseViolation(LockError):
    """A transaction attempted to acquire a lock after releasing one (2PL)."""


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction-layer errors."""


class TransactionAborted(TransactionError):
    """The transaction was aborted; carries the reason."""

    def __init__(self, txn_id: str, reason: str = "") -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class InvalidTransactionState(TransactionError):
    """An operation is illegal in the transaction's current state."""


# ---------------------------------------------------------------------------
# Compensation
# ---------------------------------------------------------------------------


class CompensationError(ReproError):
    """Base class for compensation-layer errors."""


class NotCompensatable(CompensationError):
    """No compensation action is registered for an operation (real action)."""

    def __init__(self, op_name: str, message: str | None = None) -> None:
        super().__init__(
            message or f"operation {op_name!r} is not compensatable"
        )
        self.op_name = op_name


class UnknownAction(NotCompensatable):
    """An operation named an action that is not registered at all.

    An unknown name is a *specification* bug, distinct from a registered
    real action (``inverse=None``) that is legitimately non-compensatable.
    Kept as a :class:`NotCompensatable` subclass so existing callers that
    catch the broader error keep working.
    """

    def __init__(self, op_name: str) -> None:
        super().__init__(
            op_name, f"unknown action {op_name!r}: not in the repertoire"
        )


class PersistenceViolation(CompensationError):
    """A compensating transaction failed permanently.

    Persistence of compensation (Section 3.2) requires that an initiated
    compensation eventually commits; a permanent failure is a bug in the host
    system configuration, not a recoverable condition.
    """


# ---------------------------------------------------------------------------
# Commit protocols
# ---------------------------------------------------------------------------


class CommitProtocolError(ReproError):
    """Base class for commit-protocol errors."""


class ProtocolViolation(CommitProtocolError):
    """A participant or coordinator observed an out-of-protocol message."""


class UnknownScheme(CommitProtocolError):
    """A :class:`~repro.commit.base.CommitScheme` has no registered engine.

    Every enum member must be registered in :mod:`repro.protocols`;
    ``tests/protocols/test_registry.py`` enforces this, and
    :func:`engine_for` raises this at runtime for schemes that slipped
    past it.
    """


# ---------------------------------------------------------------------------
# Model checker
# ---------------------------------------------------------------------------


class CheckError(ReproError):
    """Base class for model-checker errors."""


class StepBudgetExceeded(CheckError):
    """A controlled run exceeded its per-run step budget.

    Either the budget is too small for the scenario or the schedule drove
    the protocol into a livelock — both are worth surfacing, neither should
    hang the exploration.
    """


class ScheduleDivergence(CheckError):
    """A replayed choice vector no longer matches the run's choice points.

    Replay determinism is the checker's foundation: the same seed and
    prefix must reproduce the same candidate sets.  Divergence means
    nondeterminism leaked into the simulation (wall clock, unseeded RNG,
    iteration over an unordered container).
    """


# ---------------------------------------------------------------------------
# Static analysis (repro lint)
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """A static analyzer could not run at all (distinct from a finding).

    Raised when an analyzer's *inputs* are broken — a source file that
    cannot be read or does not parse — rather than when the analyzed code
    violates a rule.  Findings are data;
    ``AnalysisError`` is a crash.
    """


# ---------------------------------------------------------------------------
# Serialization-graph / correctness layer
# ---------------------------------------------------------------------------


class HistoryError(ReproError):
    """Malformed history (unknown transaction, out-of-order operations)."""


class CorrectnessViolation(ReproError):
    """A checker found a violation of the paper's correctness criterion.

    Carries the offending cycle (list of node labels) when applicable.
    """

    def __init__(self, message: str, cycle: list[str] | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle or []
