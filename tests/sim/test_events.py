"""Unit tests for event primitives (Event, Timeout, AllOf)."""

import pytest

from repro.sim import Environment


def test_event_lifecycle_flags():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed
    ev.succeed(99)
    assert ev.triggered
    assert ev.value == 99
    assert ev.ok
    env.run()
    assert ev.processed


def test_event_value_unavailable_before_trigger():
    env = Environment()
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value
    with pytest.raises(AttributeError):
        _ = ev.ok


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(2, value="ding")
        return got

    assert env.run(env.process(proc(env))) == "ding"


def test_allof_waits_for_all():
    env = Environment()

    def proc(env):
        a = env.timeout(3, value="a")
        b = env.timeout(7, value="b")
        result = yield env.all_of([a, b])
        return (env.now, sorted(result.values()))

    now, values = env.run(env.process(proc(env)))
    assert now == 7.0
    assert values == ["a", "b"]


def test_allof_empty_list_triggers_immediately():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    assert env.run(env.process(proc(env))) == {}


def test_condition_failure_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("sub failed")

    def proc(env):
        try:
            yield env.all_of([env.process(bad(env)), env.timeout(50)])
        except RuntimeError as exc:
            return str(exc)

    assert env.run(env.process(proc(env))) == "sub failed"


def test_events_must_share_environment():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        env1.all_of([env1.event(), env2.event()])
