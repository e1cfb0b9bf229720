"""The hot-slot calendar kernel: ordering, peek contract, heap parity.

The kernel is a current-tick slot (two deques) plus an overflow heap.
These tests pin the contracts the rest of the repo builds on:

* pop order is identical to a single binary heap's ``(time, priority,
  seq)`` order — proven here by running mixed schedules through the kernel
  and through the test-local :class:`HeapReference`;
* ``peek()`` returns ``inf`` on an empty queue (``run(until)`` and the
  drained-queue deadlock diagnostics rely on it);
* an :class:`Environment` stays *truthy* when its queue is empty —
  ``System`` uses ``env or Environment()``, so a falsy empty environment
  would be silently replaced (the bug the ``queued`` property exists to
  prevent).
"""

import heapq
import math

import pytest

from repro.errors import SimulationDeadlock
from repro.sim import Environment
from repro.sim.events import Event, NORMAL, URGENT


class HeapReference(Environment):
    """Reference kernel: one binary heap ordered by (time, priority, seq)."""

    def schedule(self, event, priority=NORMAL, delay=0.0):
        self.schedule_count += 1
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, self.schedule_count, event),
        )

    def step(self):
        self._now, _, _, event = heapq.heappop(self._queue)
        self._dispatch(event)


class TestPeekContract:
    def test_peek_infinite_on_fresh_environment(self):
        assert Environment().peek() == math.inf

    def test_peek_infinite_after_queue_drains(self):
        env = Environment()

        def proc(env):
            yield env.timeout(3)

        env.process(proc(env))
        env.run()
        assert env.peek() == math.inf
        assert env.queued == 0

    def test_peek_sees_current_tick_slot(self):
        env = Environment()
        env.schedule(Event(env), priority=NORMAL)
        assert env.peek() == env.now

    def test_peek_sees_overflow_heap(self):
        env = Environment()
        env.timeout(5)
        assert env.peek() == 5.0

    def test_drained_queue_raises_deadlock_with_diagnostics(self):
        env = Environment()
        env.add_deadlock_diagnostic(lambda: "diagnostic: nothing runnable")

        def stuck(env):
            yield Event(env)  # never triggered

        proc = env.process(stuck(env))
        with pytest.raises(SimulationDeadlock) as excinfo:
            env.run(until=proc)
        assert "diagnostic: nothing runnable" in str(excinfo.value)

    def test_empty_environment_is_truthy(self):
        # System.__init__ does ``env or Environment()``: a falsy empty
        # environment would be silently swapped for a fresh one.
        assert bool(Environment())
        assert not hasattr(Environment, "__len__")


def _record_order(env):
    order = []

    def tag(label):
        event = Event(env)
        event._ok = True  # scheduled directly, the way kernel events are
        event.callbacks.append(lambda _evt, lab=label: order.append(lab))
        return event

    return order, tag


class TestOrderingParity:
    def _drive(self, env):
        """One mixed schedule: same-tick urgent/normal plus future times."""
        order, tag = _record_order(env)
        env.schedule(tag("n1"), priority=NORMAL)
        env.schedule(tag("u1"), priority=URGENT)
        env.schedule(tag("future1"), priority=NORMAL, delay=2.0)
        env.schedule(tag("n2"), priority=NORMAL)
        env.schedule(tag("future0"), priority=NORMAL, delay=1.0)
        env.schedule(tag("u2"), priority=URGENT)

        def at_one(env):
            yield env.timeout(1.0)
            env.schedule(tag("n3"), priority=NORMAL)
            env.schedule(tag("u3"), priority=URGENT)

        env.process(at_one(env))
        env.run()
        return order

    def test_calendar_matches_heap_reference_order(self):
        order = self._drive(Environment())
        assert order == self._drive(HeapReference())
        assert len(order) == 8

    def test_urgent_runs_before_normal_at_same_tick(self):
        order = self._drive(Environment())
        assert order.index("u1") < order.index("n1")
        assert order.index("u3") < order.index("n3")

    def test_heap_event_at_current_tick_precedes_slot_normals(self):
        # ``future0`` was scheduled before the process resumed at t=1, so
        # its heap seq is smaller than the slot entries created at t=1:
        # it must run before them.
        order = self._drive(Environment())
        assert order.index("future0") < order.index("n3")

    def test_schedule_count_monotonic(self):
        env = Environment()
        before = env.schedule_count
        env.schedule(Event(env), priority=NORMAL)
        env.timeout(4)
        assert env.schedule_count == before + 2

    def test_queued_events_spans_slot_and_heap(self):
        env = Environment()
        env.schedule(Event(env), priority=NORMAL)
        env.schedule(Event(env), priority=URGENT)
        env.timeout(9)
        assert env.queued == 3
        assert len(list(env.queued_events())) == 3
