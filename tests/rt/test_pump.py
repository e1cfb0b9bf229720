"""RealtimePump: the discrete-event kernel against the asyncio clock.

The pump's contract is that generator protocol code cannot tell it is
not inside ``env.run()``: timeouts fire in order, externally injected
events (a socket frame landing in an inbox) run at the current instant
after a kick, and ``wait_for`` mirrors ``env.run(until=event)``.
"""

import asyncio
import time

import pytest

from repro.rt.pump import RealtimePump
from repro.sim.engine import Environment
from repro.sim.store import Store


def run(coro):
    return asyncio.run(coro)


class TestPump:
    def test_time_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            RealtimePump(Environment(), time_scale=0)

    def test_timeouts_fire_in_simulation_order(self):
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)
            fired = []

            def proc(delay, tag):
                yield env.timeout(delay)
                fired.append((tag, env.now))

            env.process(proc(3, "late"))
            env.process(proc(1, "early"))
            task = asyncio.ensure_future(pump.run())
            await asyncio.sleep(0.1)
            pump.stop()
            await task
            return fired

        assert run(scenario()) == [("early", 1), ("late", 3)]

    def test_external_put_wakes_a_waiting_process(self):
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)
            store = Store(env)
            got = []

            def consumer():
                item = yield store.get()
                got.append(item)

            env.process(consumer())
            task = asyncio.ensure_future(pump.run())
            await asyncio.sleep(0.02)
            # Nothing scheduled: the pump is parked on its kick event.
            store.put("frame")
            pump.kick()
            await asyncio.sleep(0.05)
            pump.stop()
            await task
            return got

        assert run(scenario()) == ["frame"]

    def test_wait_for_returns_process_value(self):
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)

            def worker():
                yield env.timeout(2)
                return "done"

            proc = env.process(worker())
            task = asyncio.ensure_future(pump.run())
            value = await pump.wait_for(proc)
            pump.stop()
            await task
            return value

        assert run(scenario()) == "done"

    def test_wait_for_raises_process_failure(self):
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)

            def worker():
                yield env.timeout(1)
                raise RuntimeError("boom")

            proc = env.process(worker())
            task = asyncio.ensure_future(pump.run())
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    await pump.wait_for(proc)
            finally:
                pump.stop()
                await task

        run(scenario())

    def test_wait_for_already_processed_event(self):
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)

            def worker():
                yield env.timeout(1)
                return 41

            proc = env.process(worker())
            env.run()  # process completes before the pump even starts
            return await pump.wait_for(proc)

        assert run(scenario()) == 41

    def test_clock_advances_with_wall_time(self):
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.005)
            resumed_at = []

            def worker():
                yield env.timeout(10)
                resumed_at.append(env.now)

            proc = env.process(worker())
            task = asyncio.ensure_future(pump.run())
            loop = asyncio.get_running_loop()
            before = loop.time()
            await pump.wait_for(proc)
            elapsed = loop.time() - before
            pump.stop()
            await task
            return resumed_at, env.now, elapsed

        resumed_at, now, elapsed = run(scenario())
        # The timer ran at its own instant; the clock itself is anchored
        # to the wall, so by the time anyone looks it has moved on a bit.
        assert resumed_at == [10]
        assert 10 <= now <= 10 + 10  # slack: 50 ms of loop latency
        # 10 units * 5 ms/unit: the wall clock genuinely moved.
        assert elapsed >= 0.04


async def kick_every(pump, period, stop):
    """Steady inbound traffic: wake the pump every ``period`` seconds."""
    while not stop.is_set():
        pump.kick()
        await asyncio.sleep(period)


async def timer_under_kicks(ticks, time_scale, kick_period, limit):
    """Wall seconds a ``ticks`` timer takes to fire while another task
    kicks the pump every ``kick_period`` seconds (``limit`` if it never
    does)."""
    env = Environment()
    pump = RealtimePump(env, time_scale=time_scale)

    def worker():
        yield env.timeout(ticks)

    proc = env.process(worker())
    loop = asyncio.get_running_loop()
    pump_task = asyncio.ensure_future(pump.run())
    stop = asyncio.Event()
    kicker = asyncio.ensure_future(kick_every(pump, kick_period, stop))
    started = loop.time()
    try:
        await asyncio.wait_for(pump.wait_for(proc), limit)
        return loop.time() - started
    except asyncio.TimeoutError:
        return limit
    finally:
        stop.set()
        await kicker
        pump.stop()
        await pump_task


class TestAnchoredClock:
    """A kick wakes the pump; it must not restart the pending timers."""

    def test_long_timer_is_not_starved_by_steady_kicks(self):
        # 25 ticks * 4 ms = 100 ms nominal, one kick per 20 ms.  With a
        # clock that only moved on a deadline wake this never fired: each
        # kick re-armed the full 100 ms.
        took = run(timer_under_kicks(25, 0.004, 0.020, limit=2.0))
        assert 0.1 <= took < 0.2

    def test_short_timer_under_dense_kicks(self):
        # The coordinator's 0.5-tick decision-log delay at the benchmark
        # scale (2 ms), with a frame arriving every millisecond.
        took = run(timer_under_kicks(0.5, 0.004, 0.001, limit=2.0))
        assert 0.002 <= took < 0.020

    def test_injected_event_sees_the_wall_clock_after_idle(self):
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)
            store = Store(env)
            seen = []

            def consumer():
                yield store.get()
                seen.append(env.now)
                yield env.timeout(5)
                seen.append(env.now)

            env.process(consumer())
            task = asyncio.ensure_future(pump.run())
            await asyncio.sleep(0.05)  # parked, queue empty
            store.put("frame")
            pump.kick()
            await asyncio.sleep(0.03)
            pump.stop()
            await task
            return seen

        arrived, timer = run(scenario())
        # 50 ms idle at 1 ms/tick: the frame is handled at ~50, not at the
        # instant the pump parked (0) -- and the timer it arms is measured
        # from there, so it is not already overdue when armed.
        assert 50 <= arrived < 65
        assert timer == arrived + 5

    def test_a_stall_of_this_process_is_not_protocol_time(self):
        # The whole process stops (SIGSTOP, a paused VM, a blocked loop)
        # past a timer's deadline.  The timer fires late -- nothing can
        # help that -- but a timeout armed *by* it still gets its full
        # duration of real listening time, instead of being found already
        # expired in the same drain.
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)
            loop = asyncio.get_running_loop()
            fired = []

            def worker():
                yield env.timeout(20)
                fired.append((env.now, loop.time()))
                yield env.timeout(30)
                fired.append((env.now, loop.time()))

            env.process(worker())
            task = asyncio.ensure_future(pump.run())
            await asyncio.sleep(0.005)
            time.sleep(0.08)  # nothing on this loop runs: 80 ms > 20 + 30
            await asyncio.sleep(0.06)
            pump.stop()
            await task
            return fired

        (at1, wall1), (at2, wall2) = run(scenario())
        assert (at1, at2) == (20, 50)
        assert wall2 - wall1 >= 0.029

    def test_a_finished_wait_is_not_a_due_timer(self):
        # A wait whose item came first leaves no deadline behind: a loop
        # busy for 20 ticks afterwards is not taken for a stall past that
        # dead deadline, which would drag the clock back to it (5.0).
        async def scenario():
            env = Environment()
            pump = RealtimePump(env, time_scale=0.02)
            store = Store(env)
            got = []

            def waiter():
                got.append((yield store.get(timeout=5)))

            env.process(waiter())
            task = asyncio.ensure_future(pump.run())
            await asyncio.sleep(0.02)  # tick 1
            store.put("frame")
            pump.kick()
            await asyncio.sleep(0.002)  # the pump hands the frame over
            time.sleep(0.4)  # the loop is busy for 20 ticks
            pump.kick()
            await asyncio.sleep(0.005)
            now = env.now
            pump.stop()
            await task
            return got, now

        got, now = run(scenario())
        assert got == ["frame"]
        assert now >= 20

    def test_stop_exits_a_parked_pump(self):
        async def scenario():
            pump = RealtimePump(Environment(), time_scale=0.001)
            task = asyncio.ensure_future(pump.run())
            await asyncio.sleep(0.01)  # parked with nothing scheduled
            pump.stop()
            await asyncio.wait_for(task, 1.0)
            return task.done()

        assert run(scenario())
