"""Bridging the discrete-event kernel to the asyncio wall clock.

The protocol core is written as generator processes against
:class:`~repro.sim.engine.Environment` — timeouts, inbox waits, composite
events.  The networked runtime runs that code *unmodified* by pumping the
environment in real time.  The kernel clock is **anchored** to the loop
clock: when :meth:`RealtimePump.run` starts it records the pair
``(sim0, wall0)``, and from then on

    ``env.now = sim0 + (loop.time() - wall0) / time_scale``

is re-applied on *every* wake before anything is drained (with one
exception, the last bullet).  So:

* a simulated timer armed for ``now + d`` fires ``d * time_scale`` real
  seconds after it was armed, however many frames arrive in between —
  a kick wakes the pump, it does not restart the timers;
* timers that came due run in time order, each at its own instant;
* externally injected work (a frame arriving from a socket triggers an
  inbox ``put``, then a *kick*) is handled at the wall instant the pump
  sees it, never at the stale instant the pump parked at — a daemon that
  idled for a minute does not arm its next lock timeout a minute late;
* when nothing is due the pump parks until the next timer's wall
  deadline or the next kick, whichever comes first;
* a *stall of this process* is not protocol time.  If the pump wakes
  more than :data:`STALL_TICKS` past a timer that was due — the process
  was SIGSTOPped, its VM paused, the loop blocked — the anchor is moved
  so that the clock reads that timer's instant.  A timeout is a failure
  detector for *peers*; time during which nobody could be heard must not
  expire it (without this, a one-second freeze of a client aborts half
  the transactions it had in flight although their replies are waiting
  in its socket buffers).

A wake is one *turn*: :meth:`Environment.advance` to the wall instant,
await the transport's outbound flush inline, park.  What the drain sent
leaves in the same loop iteration, behind one durability gate.

``time_scale`` maps simulation units to real seconds.  The default of
10 ms per unit keeps protocol timeouts (hundreds of units) in the
single-digit-second range while leaving message handling effectively
instantaneous — and, unlike the simulation, the wall clock is shared with
the operating system, so a ``kill -9``'d daemon really does go silent.
``env.now`` therefore reads "ticks since this pump first ran".
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.sim.engine import Environment
from repro.sim.events import Event

#: a wake this many ticks past a due timer means the process was stalled
#: (SIGSTOP, a paused VM, a long blocking call), not that its peers were
#: silent; the tick is the unit protocol delays are written in, and
#: event-loop latency is a small fraction of one
STALL_TICKS = 1.0


class RealtimePump:
    """Drives one :class:`Environment` against the asyncio clock.

    The wait primitive is a bare future resolved by :meth:`kick` — called
    by whoever injected external input, or by the ``call_at`` armed for
    the next scheduled simulation event.  Both wakes do the same thing
    (one turn), so the pump does not care which one it was, nor how many
    frames on how many connections arrived in the loop iteration before.
    """

    def __init__(
        self, env: Environment, time_scale: float = 0.01,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.env = env
        self.time_scale = time_scale
        #: awaited after every drain: the transport's outbound flush
        self.flush: Callable[[], Awaitable[None]] | None = None
        #: future the run loop is parked on (None while in a turn)
        self._waiter: Any = None
        #: a kick landed since the last drain finished
        self._kicked = False
        #: False once :meth:`stop` was called — even before :meth:`run`
        #: started, so a host that stops right after starting never hangs
        self._running = True

    # -- external wake-ups ---------------------------------------------------

    def kick(self) -> None:
        """Wake the pump: injected events (or a due timer) are ready to run.

        A kick during a drain is absorbed by it; one that lands while the
        turn awaits a flush that suspends costs the park: another turn.
        """
        self._kicked = True
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- the pump loop -------------------------------------------------------

    async def run(self) -> None:
        """Pump until :meth:`stop` (or task cancellation).

        Exceptions escaping event callbacks (unhandled process failures)
        propagate out of this coroutine — the host decides whether that
        kills the daemon.  A stopped pump stays stopped.
        """
        env = self.env
        loop = asyncio.get_running_loop()
        scale = self.time_scale
        # The anchor: work queued before the pump started runs at sim0.
        sim0, wall0 = env.now, loop.time()
        woke = wall0
        #: the earliest timer as the last drain left it
        next_at = float("inf")
        while self._running:
            wall = max(env.now, sim0 + (woke - wall0) / scale)
            start = min(next_at, wall)
            if wall - start > STALL_TICKS:
                # Whole ticks past a due timer: this process was stalled,
                # and no peer could be heard meanwhile.  Re-anchor so the
                # clock reads that timer's instant; the later ones keep
                # their distance from it in real time.
                wall0 += (wall - start) * scale
                wall = start
            env.advance(wall)
            next_at = env.peek()
            self._kicked = False
            if self.flush is not None:
                await self.flush()
            if self._running and not self._kicked:
                # Nothing scheduled: only a kick can end the park.
                deadline = None if next_at == float("inf") else loop.call_at(
                    wall0 + (next_at - sim0) * scale, self.kick
                )
                self._waiter = waiter = loop.create_future()
                try:
                    await waiter
                finally:
                    self._waiter = None
                    if deadline is not None:
                        deadline.cancel()
            woke = loop.time()

    def stop(self) -> None:
        """Ask the pump loop to exit after the current iteration."""
        self._running = False
        self.kick()

    # -- waiting on simulation events from asyncio ---------------------------

    async def wait_for(self, event: Event) -> Any:
        """Await a simulation event (e.g. a coordinator process) from asyncio.

        Returns the event's value, or raises its failure — the asyncio
        mirror of ``env.run(until=event)``.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Any] = loop.create_future()

        def resolve(evt: Event) -> None:
            if future.done():  # pragma: no cover - cancellation race
                return
            if evt._ok:
                future.set_result(evt._value)
            else:
                evt.defused = True
                future.set_exception(evt._value)

        if event.processed:
            resolve(event)
        else:
            event.callbacks.append(resolve)
            self.kick()
        return await future
