"""Generator-backed processes.

A :class:`Process` wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Each time a yielded event triggers, the kernel resumes the generator
with the event's value (or throws the event's failure exception into it).

A process is itself an event: it triggers when the generator returns (its
value is the generator's return value) or fails if the generator raises.  This
lets processes wait on other processes, which protocols use constantly
("spawn subtransaction, wait for it to finish").
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import ProcessInterrupted
from repro.sim.events import Event, Initialize, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Process(Event):
    """A running generator inside the simulation."""

    __slots__ = ("_generator", "name", "_target")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
        _started_on: Event | None = None,
    ) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        #: None once the generator exits
        self._generator: Generator[Event, Any, Any] | None = generator
        self.name = name or generator.__name__
        #: the event this process is currently waiting on (None when running
        #: or finished)
        self._target: Event | None = None
        if _started_on is None:
            Initialize(env, self)
        elif _started_on.processed:
            # The adopted generator suspended on an event that has already
            # run: continue it inline with that event's outcome.
            prev = env._active_process
            self._resume(_started_on)
            env._active_process = prev
        else:
            _started_on.callbacks.append(self._resume)
            self._target = _started_on

    @classmethod
    def eager(
        cls,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> "Process | None":
        """Run ``generator``'s first segment inline; return its Process.

        A regular spawn schedules an :class:`Initialize` and runs the first
        segment one kernel dispatch later.  Eager spawning runs it *now*,
        saving that dispatch — and, for generators that finish without ever
        suspending, the Process object and its termination dispatch too
        (``None`` is returned).  Only safe when the caller does not rely on
        the spawned process starting strictly after the current event's
        remaining callbacks.
        """
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        try:
            first = generator.send(None)
        except StopIteration:
            return None
        if not isinstance(first, Event):  # pragma: no cover - defensive
            generator.throw(RuntimeError(
                f"process {name or generator.__name__!r} yielded "
                f"non-event {first!r}"
            ))
            return None
        return cls(env, generator, name=name, _started_on=first)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupted` into the process.

        The interrupt is delivered at the current simulation time (urgently),
        detaching the process from whatever event it was waiting on.  The
        interrupted event stays valid and can be re-yielded afterwards.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = ProcessInterrupted(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=URGENT)

    # -- kernel interface ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome (kernel callback)."""
        self.env._active_process = self

        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target must no longer resume us).
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._terminate_ok(exc.value)
                break
            except BaseException as exc:
                self._terminate_fail(exc)
                break

            if not isinstance(next_event, Event):
                exc = RuntimeError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._terminate_ok(stop.value)
                except BaseException as err:
                    self._terminate_fail(err)
                break

            if next_event.processed:
                # Already done: loop immediately with its outcome.
                event = next_event
                continue

            next_event.callbacks.append(self._resume)
            self._target = next_event
            break

        self.env._active_process = None

    # A finished process keeps its value, not its generator: whoever
    # holds the handle (a submitter's list, an ``all_of``) would keep it.

    def _terminate_ok(self, value: Any) -> None:
        self._generator = None
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=URGENT)

    def _terminate_fail(self, exc: BaseException) -> None:
        self._generator = None
        self._ok = False
        self._value = exc
        self.env.schedule(self, priority=URGENT)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
