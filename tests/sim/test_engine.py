"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationDeadlock
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    assert env.run(p) == 5.0
    assert env.now == 5.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(10)
        fired.append(env.now)

    env.process(proc(env))
    env.run(until=3.0)
    assert env.now == 3.0
    assert fired == []
    env.run(until=20.0)
    assert fired == [10.0]
    assert env.now == 20.0


def test_run_until_past_time_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "result"

    assert env.run(env.process(proc(env))) == "result"


def test_run_drains_queue_when_until_none():
    env = Environment()

    def proc(env):
        yield env.timeout(7)

    env.process(proc(env))
    env.run()
    assert env.now == 7.0


def test_step_on_empty_queue_raises_deadlock():
    env = Environment()
    with pytest.raises(SimulationDeadlock):
        env.step()


def test_run_until_untriggerable_event_raises_deadlock():
    env = Environment()
    orphan = env.event()
    with pytest.raises(SimulationDeadlock):
        env.run(orphan)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4)
    assert env.peek() == 4.0


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_unhandled_process_failure_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_failure_propagates_to_waiting_process():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("inner")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(env.process(parent(env))) == "caught inner"


def test_determinism_same_structure_same_order():
    def build():
        env = Environment()
        order = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            order.append((tag, env.now))

        for tag, delay in (("x", 3), ("y", 1), ("z", 3)):
            env.process(proc(env, tag, delay))
        env.run()
        return order

    assert build() == build() == [("y", 1.0), ("x", 3.0), ("z", 3.0)]


def test_advance_against_a_hand_computed_schedule():
    # A host that drives the kernel against another clock: it stops at 4,
    # something is injected from outside (an inbox put: an event in the
    # current-tick slot), and the next call advances to 10.
    #
    #   t=4   host stopped here; timers pending at 6 and 9
    #   t=6   first due instant: timer A fires, *then* the injected event
    #         (A was scheduled before it) -- which arms a 3-tick timer
    #   t=9   timer B, then the injected event's timer (6 + 3), in
    #         schedule order
    #   t=10  the clock reads ``to``; the 12 timer is still pending
    env = Environment()
    log = []

    def timer(tag, delay):
        yield env.timeout(delay)
        log.append((tag, env.now))

    for tag, delay in (("A", 6), ("B", 9), ("C", 12)):
        env.process(timer(tag, delay))
    env.run(until=4)

    injected = env.event()

    def consumer():
        yield injected
        log.append(("injected", env.now))
        yield env.timeout(3)
        log.append(("armed-by-injected", env.now))

    env.process(consumer())
    injected.succeed()

    env.advance(10)
    assert log == [
        ("A", 6.0), ("injected", 6.0),
        ("B", 9.0), ("armed-by-injected", 9.0),
    ]
    assert env.now == 10.0 and env.peek() == 12.0

    # run(until=) is the contrast: it handles the slot at the stale instant.
    stale = Environment()
    seen = []
    stale.run(until=4)
    event = stale.event()
    event.callbacks.append(lambda _evt: seen.append(stale.now))
    event.succeed()
    stale.run(until=10)
    assert seen == [4.0]


def test_advance_with_no_timer_due_handles_the_slot_at_the_target():
    env = Environment()
    seen = []
    env.process(iter_timeout(env, 50, seen))
    env.run(until=1)
    event = env.event()
    event.callbacks.append(lambda _evt: seen.append(("slot", env.now)))
    event.succeed()
    env.advance(20)
    assert seen == [("slot", 20.0)] and env.now == 20.0
    env.advance(20)  # nothing due, nothing moves
    assert env.now == 20.0
    with pytest.raises(ValueError):
        env.advance(19)


def iter_timeout(env, delay, seen):
    yield env.timeout(delay)
    seen.append(("timer", env.now))
