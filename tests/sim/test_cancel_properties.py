"""Property tests: a cancelled timer is as if it had never been armed.

Random interleavings of schedules, cancels, steps, ``run(until=...)`` and
``advance`` drive the kernel and :class:`CancelReference` — the single
binary heap of ``test_calendar_queue`` that removes a cancelled timer's
entry outright — side by side.  After every operation the dispatch log,
the clock, ``queued`` and ``peek()`` must agree.  The kernel instead drops
a cancelled entry lazily at the heap top and rebuilds the heap once
cancelled entries outnumber live ones; the reference shows that neither
is observable.  Both hold for the plain kernel and for the model checker's
:class:`ControlledEnvironment`.  ``advance`` is the networked pump's
primitive and is checked on the plain kernel only: the controlled one
drains a whole tick into its slot when it opens it, so after a partly run
tick the two place the slot's remainder differently (the checker never
advances).
"""

import heapq
import math

from hypothesis import given, settings, strategies as st

from repro.check.scheduler import ChoicePolicy, ControlledEnvironment
from repro.sim import Environment
from repro.sim.events import Event, NORMAL, URGENT

from tests.sim.test_calendar_queue import HeapReference


class CancelReference(HeapReference):
    """The reference heap with the kernel's documented cancel semantics:
    a timer due by the current tick is disarmed, any other is removed.

    It also models ``advance``: events scheduled for the tick they were
    scheduled at (the kernel's hot slot) run at the first due timer's
    instant, or at the target if none is due by then.
    """

    def __init__(self):
        super().__init__()
        #: seqs of entries scheduled for a later tick than their own
        self._timed = set()

    def schedule(self, event, priority=NORMAL, delay=0.0):
        super().schedule(event, priority, delay)
        if self._now + delay != self._now:
            self._timed.add(self.schedule_count)

    def cancel(self, timer):
        if timer.callbacks is None:
            return
        if timer.at <= self._now:
            timer.callbacks.clear()
            return
        self._queue[:] = [e for e in self._queue if e[3] is not timer]
        heapq.heapify(self._queue)
        timer.callbacks = None

    def advance(self, to):
        due = [when for when, _, seq, _ in self._queue if seq in self._timed]
        self._now = now = min(min(due, default=math.inf), to)
        # The slot's events join that instant behind the timers due then
        # (within each priority), in their own order.
        late = self.schedule_count
        self._queue[:] = [
            entry if entry[2] in self._timed
            else (now, entry[1], late + entry[2], entry[3])
            for entry in self._queue
        ]
        heapq.heapify(self._queue)
        self.run(until=to)


KERNELS = {
    "calendar": Environment,
    "controlled": lambda: ControlledEnvironment(ChoicePolicy()),
}


class OpRunner:
    """Applies one operation list to one environment, logging dispatches."""

    def __init__(self, env):
        self.env = env
        self.log = []
        self.timers = []

    def _record(self, label, victim=None):
        def callback(_event):
            self.log.append((label, self.env.now))
            if victim is not None and self.timers:
                self.env.cancel(self.timers[victim % len(self.timers)])

        return callback

    def apply(self, op):
        env = self.env
        kind = op[0]
        if kind == "timer":
            _, delay, victim = op
            timer = env.timeout(delay)
            timer.callbacks.append(
                self._record(f"t{len(self.timers)}", victim)
            )
            self.timers.append(timer)
        elif kind == "event":
            event = Event(env)
            event._ok = True  # scheduled directly, as kernel events are
            event.callbacks.append(self._record(f"e{len(self.log)}"))
            env.schedule(event, priority=op[1])
        elif kind == "cancel":
            if self.timers:
                env.cancel(self.timers[op[1] % len(self.timers)])
        elif kind == "step":
            if env.queued:
                env.step()
        elif kind == "run_until":
            env.run(until=env.now + op[1])
        elif kind == "advance":
            env.advance(env.now + op[1])

    def state(self):
        env = self.env
        return list(self.log), env.now, env.queued, env.peek()


STEPS = (
    st.tuples(
        st.just("timer"), st.integers(0, 8),
        st.one_of(st.none(), st.integers(0, 50)),
    ),
    st.tuples(st.just("event"), st.sampled_from([URGENT, NORMAL])),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.integers(0, 4)),
)
ADVANCE = st.tuples(st.just("advance"), st.integers(0, 4))


def _check_against_reference(kernel, ops):
    env, ref = OpRunner(kernel()), OpRunner(CancelReference())
    for op in ops:
        env.apply(op)
        ref.apply(op)
        assert env.state() == ref.state(), op
    env.env.run()
    ref.env.run()
    assert env.state() == ref.state()
    assert all(timer.processed for timer in env.timers)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(*STEPS, ADVANCE), max_size=80))
def test_calendar_kernel_matches_reference(ops):
    _check_against_reference(KERNELS["calendar"], ops)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(*STEPS), max_size=80))
def test_controlled_kernel_matches_reference(ops):
    _check_against_reference(KERNELS["controlled"], ops)


def _dispatch_order(env, delays, cancelled, later):
    """Arm ``delays``, cancel ``cancelled``, run to the middle of the span,
    cancel ``later`` (a no-op for those that already ran), run out."""
    log = []
    timers = []
    for index, delay in enumerate(delays):
        timer = env.timeout(delay)
        timer.callbacks.append(
            lambda _evt, i=index: log.append((i, env.now))
        )
        timers.append(timer)
    for index in cancelled:
        env.cancel(timers[index])
    env.run(until=15)
    for index in later:
        env.cancel(timers[index])
    env.run()
    return log


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=200, max_size=300),
    st.randoms(use_true_random=False),
)
def test_heap_rebuild_keeps_the_order(delays, random):
    # At least 60 % of the timers are cancelled up front, so the heap is
    # rebuilt (over 100 cancelled, over half of it) before anything runs.
    n = len(delays)
    indices = list(range(n))
    random.shuffle(indices)
    cut = random.randint(int(0.6 * n), n)
    cancelled, rest = indices[:cut], indices[cut:]
    later = rest[: random.randint(0, len(rest))]
    expected = _dispatch_order(CancelReference(), delays, cancelled, later)
    for kernel in KERNELS.values():
        env = kernel()
        assert _dispatch_order(env, delays, cancelled, later) == expected
        assert env.queued == 0
    live = set(rest) - {i for i in later if delays[i] > 15}
    assert sorted(i for i, _ in expected) == sorted(live)


def test_rebuild_drops_cancelled_entries_from_the_heap():
    env = Environment()
    timers = [env.timeout(10 + i) for i in range(300)]
    for timer in timers[:200]:
        env.cancel(timer)
    # Rebuilt once 151 of 300 were cancelled; 49 more wait at the top.
    assert len(env._queue) == 149
    assert env.queued == 100
    assert env.peek() == 210.0
    env.run()
    assert env.now == 309.0
    assert env.queued == 0


def test_cancelled_timer_never_moves_the_clock():
    env = Environment()
    late = env.timeout(50)
    env.timeout(3)
    env.cancel(late)
    env.run()
    assert env.now == 3.0
    assert late.processed


def test_cancel_after_dispatch_is_a_no_op():
    env = Environment()
    timer = env.timeout(2)
    env.run()
    env.cancel(timer)
    assert env.now == 2.0
    assert env.queued == 0


def test_timer_due_now_is_disarmed_in_place():
    env = Environment()
    fired = []
    timer = env.timeout(0)
    timer.callbacks.append(lambda _evt: fired.append(env.now))
    env.cancel(timer)
    assert env.queued == 1  # still in the slot, as a no-op
    env.run()
    assert fired == []
    assert timer.processed
