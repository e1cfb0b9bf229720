"""Unit tests for timeout-based lock waits."""

import pytest

from repro.errors import LockTimeout
from repro.locking import LockManager, LockMode
from repro.sim import Environment


def test_blocked_request_times_out():
    env = Environment()
    lm = LockManager(env, "S1", lock_timeout=5.0)
    lm.acquire("T1", "x", LockMode.X)
    failed = {}

    def waiter():
        try:
            yield lm.acquire("T2", "x", LockMode.X)
        except LockTimeout:
            failed["at"] = env.now

    env.process(waiter())
    env.run()
    assert failed["at"] == 5.0
    assert len(lm._queues.get("x", ())) == 0


def test_grant_before_timeout_wins():
    env = Environment()
    lm = LockManager(env, "S1", lock_timeout=5.0)
    lm.acquire("T1", "x", LockMode.X)
    got = {}

    def waiter():
        yield lm.acquire("T2", "x", LockMode.X)
        got["at"] = env.now

    def releaser():
        yield env.timeout(2.0)
        lm.release("T1", "x")

    env.process(waiter())
    env.process(releaser())
    env.run()
    assert got["at"] == 2.0


def test_timeout_unblocks_queue_behind():
    env = Environment()
    lm = LockManager(env, "S1", lock_timeout=3.0)
    lm.acquire("T1", "x", LockMode.S)
    outcomes = {}

    def writer():
        try:
            yield lm.acquire("T2", "x", LockMode.X)
        except LockTimeout:
            outcomes["T2"] = "timeout"

    def reader():
        yield env.timeout(1.0)
        yield lm.acquire("T3", "x", LockMode.S)
        outcomes["T3"] = env.now

    env.process(writer())
    env.process(reader())
    env.run()
    # T2's queued X blocked T3's S (no barging); once T2 timed out, T3's
    # compatible request was granted immediately.
    assert outcomes["T2"] == "timeout"
    assert outcomes["T3"] == 3.0


def test_timeout_breaks_undetectable_deadlock_shape():
    """Two managers (two sites) cannot see a cross-site cycle; timeouts
    resolve it."""
    env = Environment()
    lm_a = LockManager(env, "A", lock_timeout=4.0)
    lm_b = LockManager(env, "B", lock_timeout=4.0)
    events = []

    def t1():
        yield lm_a.acquire("T1", "x", LockMode.X)
        yield env.timeout(1.0)
        try:
            yield lm_b.acquire("T1", "y", LockMode.X)
            events.append("T1-got-both")
        except LockTimeout:
            lm_a.release_all("T1")
            events.append("T1-timeout")

    def t2():
        yield lm_b.acquire("T2", "y", LockMode.X)
        yield env.timeout(1.0)
        try:
            yield lm_a.acquire("T2", "x", LockMode.X)
            events.append("T2-got-both")
        except LockTimeout:
            lm_b.release_all("T2")
            events.append("T2-timeout")

    env.process(t1())
    env.process(t2())
    env.run()
    assert sorted(events) == ["T1-timeout", "T2-timeout"]


def test_no_timeout_by_default():
    env = Environment()
    lm = LockManager(env, "S1")
    lm.acquire("T1", "x", LockMode.X)
    ev = lm.acquire("T2", "x", LockMode.X)
    env.run(until=1000.0)
    assert not ev.triggered  # waits forever without a timeout


def test_prepare_releases_read_locks_only():
    """Section 2: shared locks may be released at VOTE-REQ time; exclusive
    locks are held until the decision."""
    from repro.txn import ReadOp, Site, WriteOp

    env = Environment()
    site = Site(env, "S1")
    site.load({"r": 1, "w": 2})

    def txn():
        site.ltm.begin("T1")
        yield from site.ltm.run_ops("T1", [ReadOp("r"), WriteOp("w", 9)])
        site.ltm.prepare("T1")

    env.run(env.process(txn()))
    assert site.locks.locks_of("T1") == {"w": LockMode.X}
