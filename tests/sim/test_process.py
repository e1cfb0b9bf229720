"""Unit tests for generator-backed processes."""

import gc
import weakref

import pytest

from repro.errors import ProcessInterrupted
from repro.sim import Environment


def test_process_returns_generator_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 123

    assert env.run(env.process(proc(env))) == 123


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_is_alive_until_exit():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_name_defaults_to_generator_name():
    env = Environment()

    def my_worker(env):
        yield env.timeout(1)

    assert env.process(my_worker(env)).name == "my_worker"
    assert env.process(my_worker(env), name="custom").name == "custom"
    env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except ProcessInterrupted as exc:
            seen.append((env.now, exc.cause))

    def killer(env, target):
        yield env.timeout(3)
        target.interrupt("reason")

    target = env.process(sleeper(env))
    env.process(killer(env, target))
    env.run()
    assert seen == [(3.0, "reason")]


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper(env):
        deadline = env.timeout(10)
        try:
            yield deadline
        except ProcessInterrupted:
            pass
        # Re-yield the original event: it is still valid.
        yield deadline
        return env.now

    def killer(env, target):
        yield env.timeout(2)
        target.interrupt()

    target = env.process(sleeper(env))
    env.process(killer(env, target))
    assert env.run(target) == 10.0


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()

    def proc(env):
        me = env.active_process
        with pytest.raises(RuntimeError):
            me.interrupt()
        yield env.timeout(1)

    env.run(env.process(proc(env)))


def test_yield_non_event_raises_in_process():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        yield 42  # not an event

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_processes_wait_on_processes_chain():
    env = Environment()

    def level2(env):
        yield env.timeout(2)
        return "deep"

    def level1(env):
        value = yield env.process(level2(env))
        yield env.timeout(1)
        return value + "-done"

    assert env.run(env.process(level1(env))) == "deep-done"
    assert env.now == 3.0


def test_uncaught_interrupt_fails_process_and_waiter_sees_it():
    env = Environment()

    def sleeper(env):
        yield env.timeout(100)

    def killer(env, target):
        yield env.timeout(1)
        target.interrupt("kill")

    def parent(env):
        target = env.process(sleeper(env))
        env.process(killer(env, target))
        try:
            yield target
        except ProcessInterrupted as exc:
            return exc.cause

    assert env.run(env.process(parent(env))) == "kill"


def test_finished_process_keeps_its_value_not_its_generator():
    """A held handle (a submitter's list, an ``all_of``) keeps a finished
    process's value, but neither its generator nor what its frame held.
    (A failed one's exception keeps its frame, through the traceback.)"""
    env = Environment()

    class Scratch:
        pass

    def proc(env):
        scratch = Scratch()  # noqa: F841 - referenced by the frame only
        yield env.timeout(1)
        return 7

    handle = env.process(proc(env))
    env.run(until=0.5)  # suspended in the timeout
    generator = weakref.ref(handle._generator)
    scratch = weakref.ref(handle._generator.gi_frame.f_locals["scratch"])
    env.run()
    gc.collect()
    assert generator() is None
    assert scratch() is None
    assert not handle.is_alive
    assert handle.value == 7
