"""Redial backoff: the schedule, the per-peer gate, and the transport wiring.

The schedule is a pure function (deterministic given an RNG), the policy
is clock-free (callers pass ``now``), and the transport consults the
policy before every connect — so a burst of sends at a dead site costs
one dial attempt, not one per message.
"""

import asyncio
import random

import pytest

from repro.net.message import Message, MsgType
from repro.rt.backoff import RedialPolicy, backoff_delay
from repro.rt.config import local_cluster
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport
from repro.sim.engine import Environment


class TestBackoffDelay:
    def test_undithered_schedule_doubles_until_the_cap(self):
        delays = [
            backoff_delay(a, base=0.05, cap=2.0, jitter=0.0)
            for a in range(8)
        ]
        assert delays[:6] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
        assert delays[6] == 2.0
        assert delays[7] == 2.0  # capped, not 6.4

    def test_jitter_stays_within_its_band(self):
        rng = random.Random(7)
        for attempt in range(10):
            delay = backoff_delay(
                attempt, base=0.05, cap=2.0, jitter=0.25, rng=rng,
            )
            nominal = min(2.0, 0.05 * 2 ** attempt)
            assert 0.75 * nominal <= delay <= 1.25 * nominal

    def test_same_rng_seed_gives_the_same_schedule(self):
        a = [
            backoff_delay(i, rng=random.Random(3)) for i in range(5)
        ]
        b = [
            backoff_delay(i, rng=random.Random(3)) for i in range(5)
        ]
        assert a == b

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(-1)


class TestRedialPolicy:
    def test_windows_widen_per_failure(self):
        policy = RedialPolicy("t", base=0.05, cap=2.0, jitter=0.0)
        now = 100.0
        d1 = policy.record_failure("S1", now)
        d2 = policy.record_failure("S1", now)
        d3 = policy.record_failure("S1", now)
        assert (d1, d2, d3) == (0.05, 0.1, 0.2)

    def test_gate_opens_exactly_at_the_deadline(self):
        policy = RedialPolicy("t", jitter=0.0)
        delay = policy.record_failure("S1", 10.0)
        assert not policy.may_dial("S1", 10.0)
        assert not policy.may_dial("S1", 10.0 + delay / 2)
        assert policy.may_dial("S1", 10.0 + delay)

    def test_success_resets_the_peer(self):
        policy = RedialPolicy("t", jitter=0.0)
        policy.record_failure("S1", 0.0)
        policy.record_failure("S1", 0.0)
        policy.record_success("S1")
        assert policy.may_dial("S1", 0.0)
        # and the attempt counter restarted from the base delay
        assert policy.record_failure("S1", 0.0) == policy.base

    def test_peers_are_independent(self):
        policy = RedialPolicy("t", jitter=0.0)
        policy.record_failure("S1", 0.0)
        assert policy.may_dial("S2", 0.0)


class TestTransportUsesThePolicy:
    def test_burst_at_dead_site_costs_one_dial(self):
        # Nobody listens on the cluster's port: the first send dials and
        # fails; the rest of the burst lands inside the backoff window
        # and is dropped without another connect syscall.
        async def scenario():
            cluster = local_cluster(["S1"], data_dir=".")
            env = Environment()
            transport = TcpTransport(env, cluster, RealtimePump(env))
            transport.register("A")
            pump_task = asyncio.ensure_future(transport.pump.run())
            try:
                for i in range(5):
                    transport.send(Message(
                        msg_type=MsgType.SUBTXN_REQ, sender="A",
                        recipient="S1", txn_id=f"T{i}", payload={},
                    ))
                    # the burst ends well inside the first backoff
                    # window (>= 37.5 ms with the default jitter)
                    await asyncio.sleep(0.005)
                assert transport.dials == 1
                assert transport.dropped[MsgType.SUBTXN_REQ] == 5
            finally:
                transport.pump.stop()
                await pump_task
                await transport.close()

        asyncio.run(scenario())
