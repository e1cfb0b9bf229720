"""The discrete-event simulation environment.

:class:`Environment` owns the virtual clock and the event queue.  Events are
ordered by ``(time, priority, sequence)`` so that simultaneous events process
in a deterministic order, and process resumptions (URGENT) run before ordinary
events scheduled at the same instant.

The queue is a **calendar queue**: one hot *slot* for the current tick — a
pair of FIFO deques (URGENT, NORMAL) holding bare events — plus an overflow
heap of ``(time, priority, seq, event)`` tuples for future times.  About 62%
of all ``schedule`` calls land at the current simulation time
(``succeed``/resume/terminate chains), while future timestamps are dominated
by unique random latencies; so the hot slot absorbs the majority of traffic
with a plain ``deque.append`` — no tuple, no sequence number, no heap
rebalance — and the overflow heap stays small.  FIFO deques reproduce the
sequence-number tiebreak exactly (a heap entry at the current tick always
predates every slot entry, so only the priority needs comparing), so dispatch
order is the total ``(time, priority, sequence)`` order a single heap would
give (``tests/sim/test_calendar_queue.py`` holds that reference).

Most timers are deadlines of waits that end early: ``cancel`` marks one,
drops it lazily at the heap top and rebuilds the heap once marked entries
outnumber live ones (asyncio's rule for cancelled timer handles).

The model checker's :class:`~repro.check.scheduler.ControlledEnvironment`
steers the same queue: it opens each tick by draining that tick's heap
entries into the slot, and branches only among the tick's deliveries.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterator

from repro.errors import SimulationDeadlock
from repro.obs.events import EventBus
from repro.sim.events import AllOf, Event, NORMAL, Timeout, URGENT
from repro.sim.process import Process

_INF = float("inf")
_heappush = heapq.heappush
_heappop = heapq.heappop
#: rebuild the heap once cancelled timers are over half of it and over
#: this many (asyncio's ``_MIN_SCHEDULED_TIMER_HANDLES``)
_MIN_CANCELLED = 100


class Environment:
    """Execution environment for a single simulation run."""

    #: whether the network should attach reorderable-delivery annotations
    #: to arrival events.  Only the model checker's controlled scheduler
    #: consumes them, so the plain kernel skips building the per-message
    #: label strings entirely (they were the last unconditional payload
    #: construction on the message hot path).
    annotate_deliveries = False

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: overflow heap of (time, priority, seq, event) for future ticks
        self._queue: list[tuple[float, int, int, Event]] = []
        #: current-tick slot: bare events at time == now, FIFO per priority
        self._slot_urgent: deque[Event] = deque()
        self._slot_normal: deque[Event] = deque()
        #: heap entries whose timer was cancelled (not yet dropped)
        self._cancelled = 0
        #: monotonically increasing count of ``schedule`` calls (a
        #: cancelled timer's included).  Doubles as the heap sequence
        #: tiebreak, and the network uses it as a watermark to prove nothing
        #: was interleaved between two sends before merging them into one
        #: batched arrival.
        self.schedule_count = 0
        self._active_process: Process | None = None
        #: observability event bus (disabled by default; instrumented
        #: layers guard emission on ``bus.enabled``)
        self.bus = EventBus(clock=self)
        #: diagnostic providers consulted when a deadlock is raised; each
        #: returns a text block (or "") appended to the exception message —
        #: the System registers one that snapshots the lock managers'
        #: wait-for graphs so a drained queue is self-explanatory
        self._deadlock_diagnostics: list[Callable[[], str]] = []

    # -- clock & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being stepped (None between steps)."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if self._slot_urgent or self._slot_normal:
            return self._now
        return self._next_timer()

    def _next_timer(self) -> float:
        """Time of the heap's first live entry (cancelled ones dropped)."""
        queue = self._queue
        if self._cancelled:
            while queue and queue[0][3].callbacks is None:
                _heappop(queue)
                self._cancelled -= 1
        return queue[0][0] if queue else _INF

    @property
    def queued(self) -> int:
        """Number of scheduled-but-unprocessed events.

        Deliberately a property, not ``__len__``: an ``Environment`` must
        stay truthy when its queue is empty (``env or Environment()`` is a
        live idiom for optional-env parameters).
        """
        return (
            len(self._queue)
            - self._cancelled
            + len(self._slot_urgent)
            + len(self._slot_normal)
        )

    def queued_events(self) -> Iterator[Event]:
        """Iterate scheduled events (introspection; unspecified order)."""
        yield from self._slot_urgent
        yield from self._slot_normal
        for _when, _prio, _seq, event in self._queue:
            if event.callbacks is not None:
                yield event

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Enqueue ``event`` to be processed ``delay`` time units from now."""
        self.schedule_count += 1
        when = self._now + delay
        if when == self._now:
            # Hot slot: current-tick events in schedule (== sequence) order.
            if priority == NORMAL:
                self._slot_normal.append(event)
            elif priority == URGENT:
                self._slot_urgent.append(event)
            else:
                # Exotic priority (never in-tree): the heap orders it.
                _heappush(
                    self._queue,
                    (when, priority, self.schedule_count, event),
                )
            return
        _heappush(
            self._queue, (when, priority, self.schedule_count, event)
        )

    def _pop(self) -> tuple[float, Event]:
        """Remove and return the next ``(time, event)``.

        Heap entries at the current tick were necessarily scheduled before
        every slot entry (a same-tick schedule lands in the slot), so their
        sequence numbers are smaller and only priorities need comparing.
        Raises ``IndexError`` when everything is empty.
        """
        if self._cancelled:
            self._next_timer()  # drops cancelled timers off the heap top
        queue = self._queue
        now = self._now
        slot_urgent = self._slot_urgent
        if slot_urgent:
            if queue and queue[0][0] == now and queue[0][1] <= URGENT:
                return now, _heappop(queue)[3]
            return now, slot_urgent.popleft()
        slot_normal = self._slot_normal
        if queue and queue[0][0] == now and (
            queue[0][1] <= NORMAL or not slot_normal
        ):
            return now, _heappop(queue)[3]
        if slot_normal:
            return now, slot_normal.popleft()
        entry = _heappop(queue)  # IndexError here == queue drained
        return entry[0], entry[3]

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def cancel(self, timer: Timeout) -> None:
        """Withdraw a pending ``timer``: its callbacks never run.

        One due later is never dispatched, never moves the clock, is not
        queued and reads as processed.  One due by now sits with this
        tick's events and is disarmed (dispatched as a no-op).  A timer
        that already ran is left alone.
        """
        callbacks = timer.callbacks
        if callbacks is None:
            return
        if timer.at <= self._now:  # due: with this tick's events, unchecked
            callbacks.clear()
            return
        timer.callbacks = None
        timer._value = None
        self._cancelled = cancelled = self._cancelled + 1
        queue = self._queue
        if cancelled > _MIN_CANCELLED and 2 * cancelled > len(queue):
            # Survivors keep their (time, priority, seq) keys and order.
            queue[:] = [e for e in queue if e[3].callbacks is not None]
            heapq.heapify(queue)
            self._cancelled = 0

    # -- execution -------------------------------------------------------------

    def add_deadlock_diagnostic(self, provider: Callable[[], str]) -> None:
        """Register a provider whose text is appended to deadlock messages."""
        self._deadlock_diagnostics.append(provider)

    def _raise_deadlock(self, message: str) -> None:
        parts = [message]
        for provider in self._deadlock_diagnostics:
            try:
                text = provider()
            except Exception:  # diagnostics must never mask the deadlock
                continue
            if text:
                parts.append(text)
        raise SimulationDeadlock("\n".join(parts))

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`SimulationDeadlock` if the queue is empty, and re-raises
        an event's failure if the event failed and nothing was waiting on it
        (so programming errors inside processes surface instead of vanishing).
        """
        try:
            self._now, event = self._pop()
        except IndexError:
            self._raise_deadlock("no scheduled events")
            raise  # pragma: no cover - _raise_deadlock always raises
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Run one popped event's callbacks (shared by step variants)."""
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - double-processing guard
            raise RuntimeError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # Unhandled failure: a process crashed and nobody was watching.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning its
          value (or raising its failure).
        """
        if until is None:
            while self.queued:
                self.step()
            return None

        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self.queued:
                    self._raise_deadlock(
                        f"event queue drained before {stop!r} triggered"
                    )
                self.step()
            if stop._ok:
                return stop._value
            stop.defused = True
            raise stop._value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        while self.queued and self.peek() <= deadline:
            self.step()
        self._now = max(self._now, deadline)
        return None

    def advance(self, to: float) -> None:
        """Move the clock to ``to``, running everything due on the way.

        For a host that drives the kernel against another clock and
        injects events between calls (the networked runtime's pump).
        Unlike ``run(until=to)``, events sitting in the current-tick slot
        are handled at the first due instant — the earliest timer if one
        is due by ``to`` (it runs ahead of them), else ``to`` itself — not
        at the instant the caller last stopped, so a timer they arm counts
        from when they were seen.
        """
        to = float(to)
        if to < self._now:
            raise ValueError(f"to={to} is in the past (now={self._now})")
        self._now = min(self._next_timer(), to)
        self.run(until=to)

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={self.queued}>"
