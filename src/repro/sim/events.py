"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with a value.  Processes wait on
events by yielding them; the kernel resumes the process with the event's value
(or throws the event's exception into it).

:class:`AllOf` lets a process wait on several events at once (a batch of
spawned processes).  A wait that may time out is not a composite: it is
one event, :meth:`Store.get(timeout) <repro.sim.store.Store.get>`, backed
by a timer the kernel can withdraw (:meth:`Environment.cancel
<repro.sim.engine.Environment.cancel>`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Environment


class _Pending:
    """Sentinel for "event has no value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()

# Scheduling priorities: lower runs first at equal timestamps.  Process
# resumptions are URGENT so that a process observes the world state produced
# by the event that woke it before any same-time event fires.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Life cycle: *pending* → *triggered* (``succeed``/``fail`` called, value
    set, scheduled on the event queue) → *processed* (callbacks ran).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "annotation")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: set True once a process has observed (or will observe) a failure,
        #: used to surface unhandled failures loudly instead of silently.
        self.defused: bool = False
        #: optional ``(kind, subject, label)`` tag identifying this event as
        #: an externally reorderable occurrence (e.g. a message delivery).
        #: The plain kernel ignores it; the model checker's controlled
        #: scheduler treats same-time annotated events as a choice point.
        self.annotation: tuple[str, str, str] | None = None

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise AttributeError("value of event is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception, if it failed)."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        A waiting process will have ``exception`` thrown into it.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after its creation;
    the one event :meth:`Environment.cancel` can withdraw."""

    __slots__ = ("at",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        #: the instant it is due (``Environment.cancel`` reads it)
        self.at = env._now + delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout at={self.at}>"


class Initialize(Event):
    """Kick-starts a freshly created process (internal)."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class AllOf(Event):
    """Triggers once *all* of a fixed set of sub-events have happened;
    its value maps each to its value, and the first failure fails it."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one Environment")

        if not self._events:
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count as "has happened": a Timeout carries
        # its value from creation (triggered), but it has not occurred until
        # the kernel processes it.
        return {e: e._value for e in self._events if e.processed}

    def _check(self, event: Event) -> None:
        if self.triggered:
            # Late-arriving failures must not vanish silently.
            if not event._ok and not event.defused:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed(self._collect())
