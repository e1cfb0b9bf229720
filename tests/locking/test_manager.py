"""Unit tests for the lock manager."""

import pytest

from repro.errors import (
    DeadlockDetected,
    LockNotHeld,
    LockTimeout,
    TwoPhaseViolation,
)
from repro.locking import LockManager, LockMode
from repro.sim import Environment


def make_lm(**kwargs):
    env = Environment()
    return env, LockManager(env, "S1", **kwargs)


def grab(env, lm, txn, key, mode):
    """Acquire synchronously; returns True if granted immediately."""
    ev = lm.acquire(txn, key, mode)
    return ev.triggered


def test_immediate_grant_on_free_key():
    env, lm = make_lm()
    assert grab(env, lm, "T1", "x", LockMode.X)
    assert lm.held_mode("T1", "x") is LockMode.X


def test_shared_locks_coexist():
    env, lm = make_lm()
    assert grab(env, lm, "T1", "x", LockMode.S)
    assert grab(env, lm, "T2", "x", LockMode.S)
    assert lm.holders("x") == {"T1": LockMode.S, "T2": LockMode.S}


def test_exclusive_blocks_shared():
    env, lm = make_lm()
    assert grab(env, lm, "T1", "x", LockMode.X)
    assert not grab(env, lm, "T2", "x", LockMode.S)
    assert len(lm._queues.get("x", ())) == 1


def test_reentrant_same_mode():
    env, lm = make_lm()
    assert grab(env, lm, "T1", "x", LockMode.X)
    assert grab(env, lm, "T1", "x", LockMode.X)
    assert grab(env, lm, "T1", "x", LockMode.S)  # weaker re-request ok


def test_release_wakes_waiter_in_fifo_order():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.X)
    ev2 = lm.acquire("T2", "x", LockMode.X)
    ev3 = lm.acquire("T3", "x", LockMode.X)
    lm.release("T1", "x")
    assert ev2.triggered and not ev3.triggered
    lm.release("T2", "x")
    assert ev3.triggered


def test_release_grants_multiple_shared_waiters():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.X)
    s1 = lm.acquire("T2", "x", LockMode.S)
    s2 = lm.acquire("T3", "x", LockMode.S)
    lm.release("T1", "x")
    assert s1.triggered and s2.triggered


def test_no_barging_past_queued_conflicting_request():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.S)
    waiting_x = lm.acquire("T2", "x", LockMode.X)
    late_s = lm.acquire("T3", "x", LockMode.S)
    # T3's S is compatible with T1's S but must not overtake T2's queued X.
    assert not waiting_x.triggered
    assert not late_s.triggered
    lm.release("T1", "x")
    assert waiting_x.triggered
    assert not late_s.triggered
    lm.release("T2", "x")
    assert late_s.triggered


def test_upgrade_sole_holder_immediate():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.S)
    ev = lm.acquire("T1", "x", LockMode.X)
    assert ev.triggered
    assert lm.held_mode("T1", "x") is LockMode.X


def test_upgrade_waits_for_other_readers_with_priority():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.S)
    lm.acquire("T2", "x", LockMode.S)
    upgrade = lm.acquire("T1", "x", LockMode.X)
    other = lm.acquire("T3", "x", LockMode.X)
    assert not upgrade.triggered
    lm.release("T2", "x")
    assert upgrade.triggered
    assert not other.triggered


def test_release_unheld_raises():
    env, lm = make_lm()
    with pytest.raises(LockNotHeld):
        lm.release("T1", "x")


def test_release_all_returns_keys_sorted():
    env, lm = make_lm()
    for key in ("b", "a", "c"):
        lm.acquire("T1", key, LockMode.X)
    assert lm.release_all("T1") == ["a", "b", "c"]
    assert lm.locks_of("T1") == {}


def test_2pl_enforcement():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.X)
    lm.release("T1", "x")
    with pytest.raises(TwoPhaseViolation):
        lm.acquire("T1", "y", LockMode.S)
    lm.forget("T1")
    assert grab(env, lm, "T1", "y", LockMode.S)


def test_2pl_enforcement_can_be_disabled():
    env, lm = make_lm(enforce_2pl=False)
    lm.acquire("T1", "x", LockMode.X)
    lm.release("T1", "x")
    assert grab(env, lm, "T1", "y", LockMode.S)


def test_deadlock_detection_fails_victim_request():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.X)
    lm.acquire("T2", "y", LockMode.X)
    ev1 = lm.acquire("T1", "y", LockMode.X)  # T1 waits for T2
    ev2 = lm.acquire("T2", "x", LockMode.X)  # T2 waits for T1 -> cycle
    # Youngest (T2) is the victim: its request fails.
    assert ev2.triggered and not ev2.ok
    assert isinstance(ev2.value, DeadlockDetected)
    assert ev2.value.victim == "T2"
    assert not ev1.triggered
    ev2.defused = True
    # Victim aborts: releases its locks, survivor proceeds.
    lm.release_all("T2")
    assert ev1.triggered and ev1.ok


def test_deadlock_cycle_recorded():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.X)
    lm.acquire("T2", "y", LockMode.X)
    lm.acquire("T1", "y", LockMode.X)
    ev = lm.acquire("T2", "x", LockMode.X)
    ev.defused = True
    assert len(lm.detector.detected) == 1
    cycle = lm.detector.detected[0]
    assert set(cycle) == {"T1", "T2"}


def test_cancel_removes_queued_request():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.X)
    lm.acquire("T2", "x", LockMode.X)
    assert lm.cancel("T2") == 1
    assert len(lm._queues.get("x", ())) == 0
    lm.release("T1", "x")
    assert lm.holders("x") == {}


def test_cancel_unblocks_waiters_behind():
    env, lm = make_lm()
    lm.acquire("T1", "x", LockMode.S)
    lm.acquire("T2", "x", LockMode.X)
    ev3 = lm.acquire("T3", "x", LockMode.S)
    assert not ev3.triggered
    lm.cancel("T2")
    assert ev3.triggered


def test_hold_log_records_durations():
    env, lm = make_lm()

    def proc(env):
        yield lm.acquire("T1", "x", LockMode.X)
        yield env.timeout(5)
        lm.release("T1", "x")

    env.run(env.process(proc(env)))
    assert len(lm.hold_log) == 1
    rec = lm.hold_log[0]
    assert (rec.txn_id, rec.key, rec.mode) == ("T1", "x", LockMode.X)
    assert rec.duration == 5.0


def test_wait_log_records_block_time():
    env, lm = make_lm()

    def holder(env):
        yield lm.acquire("T1", "x", LockMode.X)
        yield env.timeout(4)
        lm.release("T1", "x")

    def waiter(env):
        yield env.timeout(1)
        yield lm.acquire("T2", "x", LockMode.X)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    waits = {t: w for t, _, w in lm.wait_log}
    assert waits["T1"] == 0.0
    assert waits["T2"] == 3.0


def test_blocking_process_integration():
    env, lm = make_lm()
    order = []

    def first(env):
        yield lm.acquire("T1", "x", LockMode.X)
        order.append(("T1-got", env.now))
        yield env.timeout(10)
        lm.release("T1", "x")

    def second(env):
        yield env.timeout(1)
        yield lm.acquire("T2", "x", LockMode.X)
        order.append(("T2-got", env.now))

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert order == [("T1-got", 0.0), ("T2-got", 10.0)]


def test_recycled_request_is_not_expired_by_its_old_timer():
    # With a lock timeout, requests are recycled too: a granted request's
    # timer is cancelled as it leaves the queue, so when the same object
    # blocks again for another transaction, the first timer's instant (5)
    # does not expire it; only its own timer (2 + 5 = 7) does.
    env, lm = make_lm(lock_timeout=5.0)
    lm.acquire("T1", "x", LockMode.X)
    lm.acquire("T3", "y", LockMode.X)
    timed_out = []

    def first():
        yield lm.acquire("T2", "x", LockMode.X)

    def second():
        yield env.timeout(2.0)
        try:
            yield lm.acquire("T4", "y", LockMode.X)
        except LockTimeout:
            timed_out.append(env.now)

    def releaser():
        yield env.timeout(1.0)
        lm.release("T1", "x")

    env.process(first())
    env.process(second())
    env.process(releaser())
    env.run(until=1.5)
    recycled = lm._request_pool[-1]
    env.run(until=2.5)
    assert lm._queues["y"][0] is recycled
    env.run()
    assert timed_out == [7.0]
    assert lm.held_mode("T2", "x") is LockMode.X
