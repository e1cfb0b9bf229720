"""The controlled scheduler: interleaving enumeration over the sim kernel.

The plain :class:`~repro.sim.engine.Environment` breaks ties among
simultaneous events by ``(priority, sequence)`` — a fixed, arbitrary order.
:class:`ControlledEnvironment` overrides :meth:`step` so that whenever the
set of events ready at the minimal timestamp contains *several annotated
message deliveries* (see ``Event.annotation``, set by the network), the
delivery to process first becomes an explicit **choice point** resolved by a
:class:`ChoicePolicy`.  Internal events (process resumptions, timeouts) are
never reordered: they are deterministic consequences of earlier choices, so
branching on them would only enumerate the same history many times.

Determinism contract: a run is a pure function of ``(seed, choice vector)``.
The policy records every choice it makes in :attr:`ChoicePolicy.log`; the
explorer replays a prefix of a previous log and branches on the first free
choice (stateless depth-first search).  Nothing in a choice label may depend
on process-global mutable state (e.g. ``Message.seq``) — labels are built
from message type, endpoints, and transaction ids only.

Partial-order pruning: two deliveries to *different* recipients at the same
instant commute in the message-passing sense — each recipient consumes its
own inbox — so exploring both orders would mostly duplicate histories.  With
``prune=True`` (default) the branch set keeps index 0 plus every delivery
whose recipient appears at least twice in the ready set.  This is a
heuristic, not a soundness-preserving sleep set: deliveries to different
sites can still race through the *shared* marking directory, so a full
search passes ``prune=False`` (the checker CLI's ``--no-prune``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ScheduleDivergence, StepBudgetExceeded
from repro.sim.engine import Environment
from repro.sim.events import URGENT, Event
from repro.sim.rng import Rng


@dataclass(frozen=True)
class Choice:
    """One recorded decision of a controlled run."""

    #: position in the run's choice log (0-based)
    index: int
    #: "deliver" (message ordering) or "crash" (failure injection)
    kind: str
    #: human-readable candidate labels, one per alternative
    labels: tuple[str, ...]
    #: index of the candidate that was taken
    chosen: int
    #: candidate indices worth exploring (after pruning), including chosen
    branch: tuple[int, ...]


class ChoicePolicy:
    """Replays a choice-vector prefix, then picks defaults (DFS baseline).

    :class:`RandomPolicy` overrides :meth:`_pick_free` to change what
    happens *past* the prefix; the prefix-replay and logging machinery is
    shared, which is what makes counterexamples replayable by construction.
    Every run is a from-scratch execution under one such policy.
    """

    def __init__(self, prefix: Sequence[int] = ()) -> None:
        self.prefix = tuple(prefix)
        #: every choice point encountered, in order
        self.log: list[Choice] = []

    def choose(
        self, kind: str, labels: Sequence[str], branch: Sequence[int]
    ) -> int:
        """Resolve one choice point; returns the chosen candidate index."""
        index = len(self.log)
        if index < len(self.prefix):
            chosen = self.prefix[index]
            if chosen >= len(labels):
                raise ScheduleDivergence(
                    f"choice {index}: prefix wants candidate {chosen} but "
                    f"only {len(labels)} are ready ({list(labels)!r}) — "
                    "the replayed run diverged from the recorded one"
                )
        else:
            chosen = self._pick_free(kind, labels, branch)
        self.log.append(Choice(
            index=index,
            kind=kind,
            labels=tuple(labels),
            chosen=chosen,
            branch=tuple(branch),
        ))
        return chosen

    def _pick_free(
        self, kind: str, labels: Sequence[str], branch: Sequence[int]
    ) -> int:
        return 0

    @property
    def vector(self) -> tuple[int, ...]:
        """The full choice vector of the run so far."""
        return tuple(choice.chosen for choice in self.log)


class RandomPolicy(ChoicePolicy):
    """Bounded mode: free choices are drawn from a seeded RNG.

    Crash choice points are biased — index 0 ("continue") is taken with
    probability ``1 - crash_probability`` — because a uniform draw over
    (continue + one alternative per site) would crash nearly every run.
    """

    def __init__(
        self,
        rng: Rng,
        crash_probability: float = 0.25,
        prefix: Sequence[int] = (),
    ) -> None:
        super().__init__(prefix)
        self.rng = rng
        self.crash_probability = crash_probability

    def _pick_free(
        self, kind: str, labels: Sequence[str], branch: Sequence[int]
    ) -> int:
        if kind == "crash":
            alternatives = [i for i in branch if i != 0]
            if alternatives and self.rng.chance(self.crash_probability):
                return self.rng.choice(alternatives)
            return 0
        return self.rng.choice(list(branch))


class ControlledEnvironment(Environment):
    """Environment whose tie-breaking among ready deliveries is a policy.

    It steers the calendar queue one tick at a time: when the hot slot is
    empty, :meth:`_open_tick` drains the next tick's heap entries — internal
    events into the slot, annotated deliveries into ``_ready`` — and
    :meth:`step` asks the policy only once the slot has run dry, so a choice
    always sees every delivery of the tick.

    ``max_steps`` bounds one run (a schedule that livelocks the protocol
    raises :class:`~repro.errors.StepBudgetExceeded` instead of hanging the
    search); ``prune`` enables the commuting-deliveries heuristic described
    in the module docstring.
    """

    #: the controlled scheduler is the one consumer of delivery annotations
    annotate_deliveries = True

    def __init__(
        self,
        policy: ChoicePolicy,
        max_steps: int | None = None,
        prune: bool = True,
    ) -> None:
        super().__init__()
        self.policy = policy
        self.max_steps = max_steps
        self.prune = prune
        #: events processed so far (the per-run budget's denominator)
        self.steps = 0
        #: the open tick's undelivered deliveries in (priority, sequence)
        #: order: the policy's candidates
        self._ready: list[Event] = []

    def peek(self) -> float:
        return self._now if self._ready else super().peek()

    @property
    def queued(self) -> int:
        return len(self._ready) + super().queued

    def queued_events(self) -> Iterator[Event]:
        yield from self._ready
        yield from super().queued_events()

    def step(self) -> None:
        urgent, normal, ready = self._slot_urgent, self._slot_normal, self._ready
        if not (urgent or normal or ready):
            self._open_tick()
        if self.max_steps is not None and self.steps >= self.max_steps:
            raise StepBudgetExceeded(
                f"run exceeded {self.max_steps} steps at t={self._now}"
            )
        self.steps += 1
        # Internal events first: they are scheduled consequences of earlier
        # choices, and URGENT process resumptions must run before any
        # delivery at the same instant (kernel invariant).  A zero-delay
        # delivery is only recognisable here — the network annotates the
        # timeout after scheduling it — and joins the tick's candidates.
        while urgent or normal:
            event = (urgent or normal).popleft()
            if event.annotation is None:
                self._dispatch(event)
                return
            ready.append(event)
        self._dispatch(self._choose_delivery())

    def _open_tick(self) -> None:
        """Advance the clock to the next tick and sort its heap entries."""
        if not self.queued:
            self._raise_deadlock("no scheduled events")
        self._now = now = self._next_timer()
        queue = self._queue
        while queue and queue[0][0] == now:
            _, priority, _, event = heapq.heappop(queue)
            if event.callbacks is None:  # a cancelled timer
                self._cancelled -= 1
            elif event.annotation is not None:
                self._ready.append(event)
            elif priority <= URGENT:
                self._slot_urgent.append(event)
            else:
                self._slot_normal.append(event)

    def _choose_delivery(self) -> Event:
        """Remove and return the ready delivery the policy sends first."""
        ready = self._ready
        if len(ready) == 1:
            return ready.pop()
        labels = [event.annotation[2] for event in ready]
        recipients = [event.annotation[1] for event in ready]
        if self.prune:
            counts = Counter(recipients)
            branch = [
                i for i in range(len(ready))
                if i == 0 or counts[recipients[i]] > 1
            ]
        else:
            branch = list(range(len(ready)))
        if len(branch) == 1:
            # Pruned to a single candidate: not a real choice point, so it
            # is not recorded (recorded trivial points would bloat every
            # vector and the DFS frontier with no-ops).
            return ready.pop(0)
        return ready.pop(self.policy.choose("deliver", labels, branch))
