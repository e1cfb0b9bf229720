"""The per-site lock manager.

Grants are FIFO-fair: a request blocks if it conflicts with a current holder
*or* with an earlier queued request (no barging), except lock *upgrades*
(S→X by the sole holder) which take priority to keep the common
read-then-write pattern live.

Blocking integrates with the simulation kernel: :meth:`LockManager.acquire`
returns an event that triggers when the lock is granted, so transaction
processes simply ``yield`` it.  Deadlocks are detected continuously on every
block; the victim's pending request fails with
:class:`~repro.errors.DeadlockDetected`.

The manager also enforces two-phase locking per transaction (acquire after
release raises :class:`~repro.errors.TwoPhaseViolation`) and records every
lock-hold interval — the raw data behind the paper's lock-hold-time claim
(experiment ``CLAIM-LOCK``) — and every grant's wait, in columns
(:class:`HoldLog`, :class:`WaitLog`) that read like lists of records.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from sys import intern
from typing import Iterator

from repro.errors import (
    DeadlockDetected,
    LockNotHeld,
    LockTimeout,
    TransactionAborted,
    TwoPhaseViolation,
)
from repro.locking.deadlock import DeadlockDetector, WaitsForGraph
from repro.locking.modes import LockMode, stronger
from repro.obs.events import (
    DeadlockObserved,
    LockGranted,
    LockReleased,
    LockRequested,
    LockTimedOut,
)
from repro.sim.engine import Environment
from repro.sim.events import Event, Timeout


@dataclass(slots=True)
class LockRequest:
    """A queued (blocked) lock request."""

    txn_id: str
    key: str
    mode: LockMode
    event: Event
    requested_at: float
    is_upgrade: bool = False
    #: the armed lock-timeout timer (None: no timeout, or left the queue)
    timer: Timeout | None = None


@dataclass(slots=True)
class HoldRecord:
    """One completed lock-hold interval (for metrics)."""

    txn_id: str
    key: str
    mode: LockMode
    granted_at: float
    released_at: float

    @property
    def duration(self) -> float:
        """Length of the hold interval."""
        return self.released_at - self.granted_at


#: a mode column's byte → the mode (S and X are the only modes)
_MODES = (LockMode.S, LockMode.X)


class HoldLog:
    """Completed lock-hold intervals, one column per field.

    Reads like a ``list[HoldRecord]`` (``len``, indexing, iteration,
    ``append``), but keeps no object per interval: ``txn`` and ``key``
    hold references to the interned ids, ``mode`` one byte (0 = S,
    1 = X), ``granted`` and ``released`` raw doubles.  Readers that scan
    the whole log may read the columns directly.
    """

    __slots__ = ("txn", "key", "mode", "granted", "released")

    def __init__(self) -> None:
        self.txn: list[str] = []
        self.key: list[str] = []
        self.mode = bytearray()
        self.granted = array("d")
        self.released = array("d")

    def add(
        self, txn_id: str, key: str, mode: LockMode,
        granted_at: float, released_at: float,
    ) -> None:
        """Record one interval."""
        self.txn.append(txn_id)
        self.key.append(key)
        self.mode.append(mode is LockMode.X)
        self.granted.append(granted_at)
        self.released.append(released_at)

    def append(self, record: HoldRecord) -> None:
        """Record one interval given as a :class:`HoldRecord`."""
        self.add(record.txn_id, record.key, record.mode,
                 record.granted_at, record.released_at)

    def __len__(self) -> int:
        return len(self.txn)

    def __getitem__(self, i: int) -> HoldRecord:
        return HoldRecord(self.txn[i], self.key[i], _MODES[self.mode[i]],
                          self.granted[i], self.released[i])

    def __iter__(self) -> Iterator[HoldRecord]:
        for txn_id, key, mode, granted_at, released_at in zip(
            self.txn, self.key, self.mode, self.granted, self.released,
        ):
            yield HoldRecord(txn_id, key, _MODES[mode], granted_at,
                             released_at)


class WaitLog:
    """Per-grant wait durations, one column per field.

    Reads like a ``list`` of ``(txn_id, key, waited)`` tuples.  ``waited``
    keeps the float objects themselves (an immediate grant's is the one
    shared ``0.0``), so a reader of ``w[2]`` allocates no float.
    """

    __slots__ = ("txn", "key", "waited")

    def __init__(self) -> None:
        self.txn: list[str] = []
        self.key: list[str] = []
        self.waited: list[float] = []

    def add(self, txn_id: str, key: str, waited: float) -> None:
        """Record one grant."""
        self.txn.append(txn_id)
        self.key.append(key)
        self.waited.append(waited)

    def append(self, entry: tuple[str, str, float]) -> None:
        """Record one grant given as ``(txn_id, key, waited)``."""
        self.add(*entry)

    def __len__(self) -> int:
        return len(self.txn)

    def __getitem__(self, i: int) -> tuple[str, str, float]:
        return self.txn[i], self.key[i], self.waited[i]

    def __iter__(self) -> Iterator[tuple[str, str, float]]:
        return zip(self.txn, self.key, self.waited)


@dataclass(slots=True)
class _Grant:
    """A currently held lock."""

    mode: LockMode
    granted_at: float


class LockManager:
    """S/X lock table for one site."""

    def __init__(
        self,
        env: Environment,
        site_id: str = "site",
        enforce_2pl: bool = True,
        lock_timeout: float | None = None,
    ) -> None:
        self.env = env
        self.site_id = site_id
        self.enforce_2pl = enforce_2pl
        #: when set, a blocked request fails with
        #: :class:`~repro.errors.LockTimeout` after this many time units —
        #: the timeout-based deadlock resolution common where a waits-for
        #: graph is unavailable (it also breaks cross-site deadlocks, which
        #: the local detector cannot see)
        self.lock_timeout = lock_timeout
        #: key → {txn_id → grant}
        self._holders: dict[str, dict[str, _Grant]] = {}
        #: key → FIFO of blocked requests
        self._queues: dict[str, deque[LockRequest]] = {}
        #: transactions in their shrinking phase (released at least one lock)
        self._shrinking: set[str] = set()
        self.waits_for = WaitsForGraph()
        self.detector = DeadlockDetector(self.waits_for)
        #: completed hold intervals (metrics)
        self.hold_log = HoldLog()
        #: per-grant wait durations (metrics): (txn, key, wait_time)
        self.wait_log = WaitLog()
        #: recycled :class:`LockRequest` objects (grant path stays
        #: allocation-free under contention).  Safe with a lock timeout
        #: too: a request's timer is cancelled whenever it leaves the
        #: queue, so no timer can reach a retired request.
        self._request_pool: list[LockRequest] = []

    # -- introspection ---------------------------------------------------------

    def holders(self, key: str) -> dict[str, LockMode]:
        """Current holders of ``key`` and their modes."""
        return {t: g.mode for t, g in self._holders.get(key, {}).items()}

    def held_mode(self, txn_id: str, key: str) -> LockMode | None:
        """Mode in which ``txn_id`` holds ``key``, or None."""
        grants = self._holders.get(key)
        if not grants:
            return None
        grant = grants.get(txn_id)
        return grant.mode if grant else None

    def locks_of(self, txn_id: str) -> dict[str, LockMode]:
        """All keys ``txn_id`` currently holds, with modes."""
        return {
            key: grants[txn_id].mode
            for key, grants in self._holders.items()
            if txn_id in grants
        }

    # -- acquire ----------------------------------------------------------------

    def acquire(self, txn_id: str, key: str, mode: LockMode) -> Event:
        """Request ``key`` in ``mode``; the returned event triggers on grant.

        Immediately-grantable requests return an already-triggered event, so
        a process that yields it continues in the same time step.
        """
        # Per-site interned tables: every key/txn id that reaches the lock
        # table is interned, so the dict probes below (and in release /
        # waits-for bookkeeping) compare by pointer, not by content.
        txn_id = intern(txn_id)
        key = intern(key)
        if self.enforce_2pl and txn_id in self._shrinking:
            raise TwoPhaseViolation(
                f"{txn_id} acquired {key} after releasing a lock (2PL)"
            )
        event = Event(self.env)

        held = self.held_mode(txn_id, key)
        if held is not None and not (held is LockMode.S and mode is LockMode.X):
            # Re-entrant: already held in a sufficient mode.
            event.succeed((key, held))
            return event

        is_upgrade = held is LockMode.S and mode is LockMode.X
        grantable = self._grantable(txn_id, key, mode, is_upgrade)
        bus = self.env.bus
        if bus.enabled:
            bus.publish(LockRequested(
                site_id=self.site_id, txn_id=txn_id, key=key,
                mode=mode.value, immediate=grantable,
            ))
        if grantable:
            self._grant(txn_id, key, mode, requested_at=self.env.now)
            event.succeed((key, mode))
            return event

        if self._request_pool:
            # Recycle a retired request object (see the pool comment above).
            request = self._request_pool.pop()
            request.txn_id = txn_id
            request.key = key
            request.mode = mode
            request.event = event
            request.requested_at = self.env.now
            request.is_upgrade = is_upgrade
        else:
            request = LockRequest(
                txn_id=txn_id,
                key=key,
                mode=mode,
                event=event,
                requested_at=self.env.now,
                is_upgrade=is_upgrade,
            )
        queue = self._queues.setdefault(key, deque())
        if is_upgrade:
            # Upgrades go to the front: they only wait for other holders.
            queue.appendleft(request)
        else:
            queue.append(request)
        self._record_waits(request)
        self._detect_deadlock(request)
        if self.lock_timeout is not None and not event.triggered:
            request.timer = timer = self.env.timeout(
                self.lock_timeout, request
            )
            timer.callbacks.append(self._expire)
        return event

    def _expire(self, timer: Timeout) -> None:
        """A blocked request's lock timeout: fail it and leave the queue."""
        request: LockRequest = timer.value
        request.timer = None
        queue = self._queues[request.key]
        queue.remove(request)
        if not queue:
            del self._queues[request.key]
        self.waits_for.remove_waiter(request.txn_id)
        bus = self.env.bus
        if bus.enabled:
            bus.publish(LockTimedOut(
                site_id=self.site_id, txn_id=request.txn_id,
                key=request.key, waited=self.env.now - request.requested_at,
            ))
        request.event.fail(LockTimeout(
            f"{request.txn_id} waited {self.lock_timeout} for "
            f"{request.key} at {self.site_id}"
        ))
        self._wake_waiters(request.key)

    def _disarm(self, request: LockRequest) -> None:
        """Cancel ``request``'s lock timeout as it leaves the queue."""
        if request.timer is not None:
            self.env.cancel(request.timer)
            request.timer = None

    def _grantable(
        self, txn_id: str, key: str, mode: LockMode, is_upgrade: bool
    ) -> bool:
        holders = self._holders.get(key)
        if holders:
            # Inlined compatibility: only S/S coexists, so a conflict is
            # "either side is not S".
            requested_shared = mode is LockMode.S
            for holder, grant in holders.items():
                if holder == txn_id:
                    continue
                if not (requested_shared and grant.mode is LockMode.S):
                    return False
        if is_upgrade:
            # An upgrade ignores the queue (it has priority) and only needs
            # the other holders gone.
            return True
        queue = self._queues.get(key)
        if queue:
            # FIFO fairness: a new request never overtakes a queued one it
            # conflicts with; S may still slip past queued S.
            requested_shared = mode is LockMode.S
            for queued in queue:
                if queued.txn_id != txn_id and not (
                    requested_shared and queued.mode is LockMode.S
                ):
                    return False
        return True

    def _grant(
        self, txn_id: str, key: str, mode: LockMode, requested_at: float
    ) -> None:
        bus = self.env.bus
        grants = self._holders.setdefault(key, {})
        existing = grants.get(txn_id)
        if existing is not None:
            # Upgrade: close the S-hold interval, open the X interval.
            self.hold_log.add(
                txn_id, key, existing.mode, existing.granted_at, self.env.now,
            )
            if bus.enabled:
                bus.publish(LockReleased(
                    site_id=self.site_id, txn_id=txn_id, key=key,
                    mode=existing.mode.value,
                    held=self.env.now - existing.granted_at,
                ))
            mode = stronger(existing.mode, mode)
        now = self.env.now
        grants[txn_id] = _Grant(mode=mode, granted_at=now)
        # An immediate grant shares one 0.0 instead of a new float.
        waited = now - requested_at if now != requested_at else 0.0
        self.wait_log.add(txn_id, key, waited)
        if bus.enabled:
            bus.publish(LockGranted(
                site_id=self.site_id, txn_id=txn_id, key=key,
                mode=mode.value, waited=waited,
            ))

    # -- release -----------------------------------------------------------------

    def release(self, txn_id: str, key: str) -> None:
        """Release one lock; wakes newly grantable waiters."""
        grants = self._holders.get(key)
        grant = grants.pop(txn_id, None) if grants else None
        if grant is None:
            raise LockNotHeld(f"{txn_id} does not hold {key}")
        if not grants:
            self._holders.pop(key, None)
        self._shrinking.add(txn_id)
        self.hold_log.add(
            txn_id, key, grant.mode, grant.granted_at, self.env.now,
        )
        bus = self.env.bus
        if bus.enabled:
            bus.publish(LockReleased(
                site_id=self.site_id, txn_id=txn_id, key=key,
                mode=grant.mode.value,
                held=self.env.now - grant.granted_at,
            ))
        self._wake_waiters(key)

    def release_all(self, txn_id: str) -> list[str]:
        """Release every lock of ``txn_id``; returns the released keys.

        This is the operation O2PC performs at vote time and distributed 2PL
        performs at decision time.
        """
        keys = sorted(self.locks_of(txn_id))
        for key in keys:
            self.release(txn_id, key)
        # The transaction is gone: drop any waits-for edges pointing at it.
        self.waits_for.remove_transaction(txn_id)
        return keys

    def cancel(self, txn_id: str, key: str | None = None) -> int:
        """Withdraw pending (blocked) requests of ``txn_id``.

        Used when a transaction aborts while waiting — e.g. an abort
        decision arrives for a subtransaction still blocked on a lock.  The
        cancelled requests' events fail with
        :class:`~repro.errors.TransactionAborted`, waking their waiting
        process so it can unwind.  Returns the number cancelled.
        """
        cancelled = 0
        for qkey, queue in list(self._queues.items()):
            if key is not None and qkey != key:
                continue
            remaining: deque[LockRequest] = deque()
            for request in queue:
                if request.txn_id == txn_id:
                    cancelled += 1
                    self._disarm(request)
                    if not request.event.triggered:
                        exc = TransactionAborted(
                            txn_id, f"lock request on {qkey} cancelled"
                        )
                        request.event.fail(exc)
                        request.event.defused = True
                else:
                    remaining.append(request)
            if remaining:
                self._queues[qkey] = remaining
            else:
                self._queues.pop(qkey, None)
            if cancelled:
                self._wake_waiters(qkey)
        self.waits_for.remove_waiter(txn_id)
        return cancelled

    def forget(self, txn_id: str) -> None:
        """Clear 2PL shrink-phase state for a finished transaction id."""
        self._shrinking.discard(txn_id)

    # -- waking / deadlock -------------------------------------------------------

    def _wake_waiters(self, key: str) -> None:
        queue = self._queues.get(key)
        if not queue:
            return
        # Every other exit (cancel, deadlock victim, lock timeout) takes a
        # request out of its queue, so the head is always still waiting.
        progressed = True
        while progressed and queue:
            progressed = False
            head = queue[0]
            if self._holders_compatible(head):
                queue.popleft()
                self._disarm(head)
                self._grant(
                    head.txn_id, head.key, head.mode, head.requested_at
                )
                self.waits_for.remove_waiter(head.txn_id)
                head.event.succeed((head.key, head.mode))
                self._request_pool.append(head)
                progressed = True
        if not queue:
            self._queues.pop(key, None)
        else:
            # Refresh waits-for edges of the remaining head (its blockers
            # may have changed).
            self._record_waits(queue[0])

    def _holders_compatible(self, request: LockRequest) -> bool:
        holders = self._holders.get(request.key)
        if not holders:
            return True
        requested_shared = request.mode is LockMode.S
        for holder, grant in holders.items():
            if holder == request.txn_id:
                continue
            if not (requested_shared and grant.mode is LockMode.S):
                return False
        return True

    def _record_waits(self, request: LockRequest) -> None:
        holders = self._holders.get(request.key)
        requested_shared = request.mode is LockMode.S
        blockers = [
            holder
            for holder, grant in (holders.items() if holders else ())
            if holder != request.txn_id
            and not (requested_shared and grant.mode is LockMode.S)
        ]
        queue = self._queues.get(request.key, ())
        for queued in queue:
            if queued is request:
                break
            if queued.txn_id != request.txn_id and not (
                requested_shared and queued.mode is LockMode.S
            ):
                blockers.append(queued.txn_id)
        self.waits_for.add_wait(request.txn_id, blockers)

    def _detect_deadlock(self, request: LockRequest) -> None:
        if not self.waits_for.could_cycle(request.txn_id):
            return
        victim = self.detector.check(request.txn_id)
        if victim is None:
            return
        cycle = self.detector.detected[-1]
        bus = self.env.bus
        if bus.enabled:
            bus.publish(DeadlockObserved(
                site_id=self.site_id, victim=victim, cycle=tuple(cycle),
            ))
        # Fail every pending request of the victim; its owner must abort.
        exc = DeadlockDetected(victim, cycle)
        for qkey, queue in list(self._queues.items()):
            remaining: deque[LockRequest] = deque()
            for queued in queue:
                if queued.txn_id == victim and not queued.event.triggered:
                    self._disarm(queued)
                    queued.event.fail(exc)
                else:
                    remaining.append(queued)
            if remaining:
                self._queues[qkey] = remaining
            else:
                self._queues.pop(qkey, None)
        self.waits_for.remove_waiter(victim)
