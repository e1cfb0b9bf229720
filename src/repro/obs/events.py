"""The event taxonomy and the bus.

Every event is a plain dataclass carrying primitive fields only (strings,
numbers, booleans, tuples of strings) so the stream serializes to JSONL
without custom encoders and the schema stays stable.  ``ts`` (simulation
time) and ``seq`` (a global, gap-free sequence number) are stamped by the
bus at publish time; within one run ``seq`` is a total order consistent
with the simulation's own deterministic event ordering, so two runs with
the same seed produce identical streams.

The bus is **disabled by default** and emission sites guard with::

    bus = self.env.bus
    if bus.enabled:
        bus.publish(LockGranted(...))

so an un-observed run pays one attribute load and one branch per would-be
event — nothing is constructed, nothing is stored.

Event kinds (the ``kind`` class attribute, mirrored into JSONL):

========================  =====================================================
``txn.submit``            coordinator started a global transaction
``txn.phase``             coordinator entered a protocol phase (spawn/vote/
                          decision)
``txn.vote``              coordinator recorded one site's vote
``txn.decision``          coordinator force-logged the global decision
``txn.end``               global transaction terminated
``subtxn.start``          participant began executing a subtransaction
``subtxn.exec``           subtransaction executed (holds all its locks)
``subtxn.reject``         rule R1 rejected the spawn
``subtxn.fail``           execution failed (deadlock / lock timeout / abort)
``subtxn.local_commit``   O2PC local commit at vote time (early release)
``subtxn.prepare``        2PL prepare at vote time (locks kept)
``subtxn.decision``       participant applied the global decision
``comp.start``            compensating subtransaction started
``comp.end``              compensating subtransaction committed
``site.crash``            site lost its volatile state
``site.recover``          site restarted from its log
``lock.request``          lock requested (``immediate`` = granted at once)
``lock.grant``            lock granted (``waited`` = block time)
``lock.release``          lock released (``held`` = hold time)
``lock.timeout``          blocked request abandoned by the lock-wait timeout
``lock.deadlock``         deadlock detected; ``victim`` chosen
``net.send``              message handed to the network
``net.deliver``           message delivered to the recipient inbox
``net.drop``              message dropped (``reason`` says why)
``mark.r1``               a marking protocol's R1 check rejected a spawn
``mark.undone``           a site became undone wrt a transaction (rule R2)
``mark.clear``            marks cleared (rule R3/UDUM1, or quiescence)
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar


@dataclass(slots=True)
class Event:
    """Base event: ``ts`` and ``seq`` are stamped by the bus on publish."""

    ts: float = field(init=False, default=0.0)
    seq: int = field(init=False, default=-1)
    kind: ClassVar[str] = "event"


# -- transaction / coordinator ---------------------------------------------------


@dataclass(slots=True)
class TxnSubmitted(Event):
    kind: ClassVar[str] = "txn.submit"
    txn_id: str
    sites: tuple[str, ...]


@dataclass(slots=True)
class PhaseEntered(Event):
    kind: ClassVar[str] = "txn.phase"
    txn_id: str
    #: "spawn", "vote", or "decision"
    phase: str


@dataclass(slots=True)
class VoteRecorded(Event):
    kind: ClassVar[str] = "txn.vote"
    txn_id: str
    site_id: str
    vote: str


@dataclass(slots=True)
class DecisionReached(Event):
    kind: ClassVar[str] = "txn.decision"
    txn_id: str
    decision: str


@dataclass(slots=True)
class TxnTerminated(Event):
    kind: ClassVar[str] = "txn.end"
    txn_id: str
    committed: bool
    latency: float
    compensated_sites: tuple[str, ...]


# -- participant -----------------------------------------------------------------


@dataclass(slots=True)
class SubtxnStarted(Event):
    kind: ClassVar[str] = "subtxn.start"
    txn_id: str
    site_id: str


@dataclass(slots=True)
class SubtxnExecuted(Event):
    kind: ClassVar[str] = "subtxn.exec"
    txn_id: str
    site_id: str


@dataclass(slots=True)
class SubtxnRejected(Event):
    kind: ClassVar[str] = "subtxn.reject"
    txn_id: str
    site_id: str
    retriable: bool
    reason: str


@dataclass(slots=True)
class SubtxnFailed(Event):
    kind: ClassVar[str] = "subtxn.fail"
    txn_id: str
    site_id: str
    reason: str


@dataclass(slots=True)
class LocallyCommitted(Event):
    kind: ClassVar[str] = "subtxn.local_commit"
    txn_id: str
    site_id: str


@dataclass(slots=True)
class Prepared(Event):
    kind: ClassVar[str] = "subtxn.prepare"
    txn_id: str
    site_id: str


@dataclass(slots=True)
class DecisionApplied(Event):
    kind: ClassVar[str] = "subtxn.decision"
    txn_id: str
    site_id: str
    decision: str
    compensated: bool


# -- compensation ----------------------------------------------------------------


@dataclass(slots=True)
class CompensationStarted(Event):
    kind: ClassVar[str] = "comp.start"
    txn_id: str
    ct_id: str
    site_id: str


@dataclass(slots=True)
class CompensationFinished(Event):
    kind: ClassVar[str] = "comp.end"
    txn_id: str
    ct_id: str
    site_id: str
    retries: int


# -- site failures / recovery ----------------------------------------------------


@dataclass(slots=True)
class SiteCrashed(Event):
    kind: ClassVar[str] = "site.crash"
    site_id: str


@dataclass(slots=True)
class SiteRecovered(Event):
    kind: ClassVar[str] = "site.recover"
    site_id: str
    in_doubt: tuple[str, ...]
    locally_committed: tuple[str, ...]


# -- locking ---------------------------------------------------------------------


@dataclass(slots=True)
class LockRequested(Event):
    kind: ClassVar[str] = "lock.request"
    site_id: str
    txn_id: str
    key: str
    mode: str
    immediate: bool


@dataclass(slots=True)
class LockGranted(Event):
    kind: ClassVar[str] = "lock.grant"
    site_id: str
    txn_id: str
    key: str
    mode: str
    waited: float


@dataclass(slots=True)
class LockReleased(Event):
    kind: ClassVar[str] = "lock.release"
    site_id: str
    txn_id: str
    key: str
    mode: str
    held: float


@dataclass(slots=True)
class LockTimedOut(Event):
    kind: ClassVar[str] = "lock.timeout"
    site_id: str
    txn_id: str
    key: str
    waited: float


@dataclass(slots=True)
class DeadlockObserved(Event):
    kind: ClassVar[str] = "lock.deadlock"
    site_id: str
    victim: str
    cycle: tuple[str, ...]


# -- network ---------------------------------------------------------------------


@dataclass(slots=True)
class MessageSent(Event):
    kind: ClassVar[str] = "net.send"
    msg_type: str
    sender: str
    recipient: str
    txn_id: str


@dataclass(slots=True)
class MessageDelivered(Event):
    kind: ClassVar[str] = "net.deliver"
    msg_type: str
    sender: str
    recipient: str
    txn_id: str
    latency: float


@dataclass(slots=True)
class MessageDropped(Event):
    kind: ClassVar[str] = "net.drop"
    msg_type: str
    sender: str
    recipient: str
    txn_id: str
    #: "sender_down" | "severed" | "loss" | "recipient_down" |
    #: "severed_in_flight"
    reason: str


# -- marking protocol ------------------------------------------------------------


@dataclass(slots=True)
class MarkingRejected(Event):
    kind: ClassVar[str] = "mark.r1"
    protocol: str
    txn_id: str
    site_id: str
    retriable: bool
    reason: str


@dataclass(slots=True)
class MarkApplied(Event):
    kind: ClassVar[str] = "mark.undone"
    txn_id: str
    site_id: str


@dataclass(slots=True)
class MarkCleared(Event):
    kind: ClassVar[str] = "mark.clear"
    txn_id: str
    #: "UDUM1" (rule R3) or "quiescence"
    rule: str
    enabler: str


# -- the bus ---------------------------------------------------------------------


class EventBus:
    """Synchronous publish/subscribe bus stamped from a simulation clock.

    Disabled by default; while disabled, emission sites skip event
    construction entirely.  Subscribers are called in subscription order,
    synchronously, inside ``publish`` — they must not mutate simulation
    state.
    """

    __slots__ = ("_clock", "_subscribers", "_seq", "enabled")

    def __init__(self, clock: Any = None) -> None:
        #: anything with a ``now`` attribute (the Environment)
        self._clock = clock
        self._subscribers: list[Callable[[Event], None]] = []
        self._seq = 0
        #: emission guard checked by every instrumented layer
        self.enabled = False

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Register a callback invoked with every published event."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Remove a previously registered callback (no-op if absent).

        Safe inside a callback: the list is replaced, not edited, so a
        ``publish`` in progress still reaches every subscriber.
        """
        self._subscribers = [
            other for other in self._subscribers if other != callback
        ]

    @property
    def has_subscribers(self) -> bool:
        """True while at least one callback is registered."""
        return bool(self._subscribers)

    def enable(self) -> None:
        """Turn emission on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn emission off (subscribers stay registered)."""
        self.enabled = False

    def publish(self, event: Event) -> Event:
        """Stamp ``ts``/``seq`` and fan ``event`` out to subscribers."""
        event.ts = self._clock.now if self._clock is not None else 0.0
        event.seq = self._seq
        self._seq += 1
        for callback in self._subscribers:
            callback(event)
        return event


class EventLog:
    """A subscriber that retains every event, in publish order."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)
