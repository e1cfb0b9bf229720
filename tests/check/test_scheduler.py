"""Controlled scheduler: choice points, pruning, replay, budgets."""

import pytest

from repro.check.explorer import CheckConfig, ModelChecker
from repro.check.scheduler import ChoicePolicy, ControlledEnvironment, RandomPolicy
from repro.commit.base import CommitScheme
from repro.errors import (
    ScheduleDivergence,
    SimulationDeadlock,
    StepBudgetExceeded,
)
from repro.sim.events import Event, URGENT
from repro.sim.rng import Rng


def _annotated_timeout(env, delay, recipient, label, sink):
    timeout = env.timeout(delay)
    timeout.annotation = ("net.deliver", recipient, label)
    timeout.callbacks.append(lambda _evt: sink.append(label))
    return timeout


class TestChoicePoints:
    def test_same_recipient_simultaneous_deliveries_branch(self):
        policy = ChoicePolicy()
        env = ControlledEnvironment(policy)
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 1.0, "S1", "b->S1", order)
        env.run()
        assert order == ["a->S1", "b->S1"]
        assert len(policy.log) == 1
        choice = policy.log[0]
        assert choice.kind == "deliver"
        assert choice.labels == ("a->S1", "b->S1")
        assert choice.branch == (0, 1)

    def test_prefix_flips_delivery_order(self):
        policy = ChoicePolicy(prefix=(1,))
        env = ControlledEnvironment(policy)
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 1.0, "S1", "b->S1", order)
        env.run()
        assert order == ["b->S1", "a->S1"]

    def test_cross_site_deliveries_pruned(self):
        """Deliveries to different recipients commute: no choice point."""
        policy = ChoicePolicy()
        env = ControlledEnvironment(policy, prune=True)
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 1.0, "S2", "b->S2", order)
        env.run()
        assert order == ["a->S1", "b->S2"]
        assert policy.log == []

    def test_no_prune_explores_cross_site_orders(self):
        policy = ChoicePolicy(prefix=(1,))
        env = ControlledEnvironment(policy, prune=False)
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 1.0, "S2", "b->S2", order)
        env.run()
        assert order == ["b->S2", "a->S1"]

    def test_internal_events_run_before_deliveries(self):
        policy = ChoicePolicy()
        env = ControlledEnvironment(policy)
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 1.0, "S1", "b->S1", order)
        plain = env.timeout(1.0)
        plain.callbacks.append(lambda _evt: order.append("internal"))
        env.run()
        assert order[0] == "internal"
        # The delivery pair still forms one choice point afterwards.
        assert len(policy.log) == 1

    def test_deliveries_at_different_times_never_branch(self):
        policy = ChoicePolicy()
        env = ControlledEnvironment(policy)
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 2.0, "S1", "b->S1", order)
        env.run()
        assert order == ["a->S1", "b->S1"]
        assert policy.log == []


class TestTickOpening:
    """The scheduler steers the calendar queue one opened tick at a time."""

    def test_internal_events_of_a_tick_run_before_its_deliveries(self):
        policy = ChoicePolicy()
        env = ControlledEnvironment(policy)
        order = []
        first = _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 1.0, "S1", "b->S1", order)
        # Both queued behind the deliveries, the NORMAL one ahead of the
        # URGENT one: priority, not arrival order, ranks them.
        env.timeout(1.0).callbacks.append(lambda _evt: order.append("normal"))
        urgent = Event(env)
        urgent._ok = True
        urgent.callbacks.append(lambda _evt: order.append("urgent"))
        env.schedule(urgent, priority=URGENT, delay=1.0)
        # An internal event a delivery spawns runs before the next delivery.
        first.callbacks.append(
            lambda _evt: env.timeout(0).callbacks.append(
                lambda _evt: order.append("spawned")
            )
        )
        env.run()
        assert order == ["urgent", "normal", "a->S1", "spawned", "b->S1"]

    def test_zero_delay_delivery_joins_the_open_tick_in_sequence_order(self):
        policy = ChoicePolicy(prefix=(2,))
        env = ControlledEnvironment(policy)
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        _annotated_timeout(env, 1.0, "S1", "b->S1", order)
        env.timeout(1.0).callbacks.append(
            lambda _evt: _annotated_timeout(env, 0, "S1", "c->S1", order)
        )
        env.run()
        assert policy.log[0].labels == ("a->S1", "b->S1", "c->S1")
        assert order == ["c->S1", "a->S1", "b->S1"]

    def test_introspection_and_run_until_see_parked_deliveries(self):
        env = ControlledEnvironment(ChoicePolicy())
        order = []
        _annotated_timeout(env, 1.0, "S1", "a->S1", order)
        parked = _annotated_timeout(env, 1.0, "S1", "b->S1", order)
        _annotated_timeout(env, 5.0, "S1", "c->S1", order)
        env.step()
        assert order == ["a->S1"]
        assert env.queued == 2
        assert env.peek() == env.now == 1.0
        assert parked in list(env.queued_events())
        env.run(until=1.0)
        assert order == ["a->S1", "b->S1"]
        assert env.peek() == 5.0

    def test_drained_queue_raises_deadlock_with_diagnostics(self):
        env = ControlledEnvironment(ChoicePolicy())
        env.add_deadlock_diagnostic(lambda: "diagnostic: nothing runnable")
        _annotated_timeout(env, 1.0, "S1", "a->S1", [])
        env.run()
        with pytest.raises(SimulationDeadlock) as excinfo:
            env.step()
        assert "diagnostic: nothing runnable" in str(excinfo.value)


class TestCensusPin:
    """Schedule census per engine, with and without crash injection.

    The controlled scheduler opens the calendar queue one tick at a time.
    The pinned schedule counts and default-schedule choice points predate
    that (they were recorded when every event sat in one heap), so a
    change to either is a change in what the checker explores.

    The non-O2PC rows moved when marking became O2PC-only.  Their NO voter
    used to mark ``T1`` undone at ``S2`` while the prepared ``S1`` rolled
    back unmarked, so the mark never cleared and P1 rejected ``T2`` at
    ``S2`` for it.  Admitting ``T2`` opens schedules the rejection used to
    cut: ``TWO_PL`` and ``SHORT`` went 16 → 32 schedules (4 → 5 choice
    points); with crashes, ``TWO_PL`` 9 → 14 and ``SHORT`` 9 → 13 choice
    points; ``PAXOS`` 11 → 19 and 16 → 28.  The O2PC rows are unchanged,
    and every row ends each schedule with no undone mark left.  The same
    leak showed in ``repro trace --seed 7`` under the default P1: TWO_PL,
    PAXOS and SHORT logged 121, 121 and 143 ``mark.r1`` rejections and
    sent 20, 20 and 16 of 48 vote requests; they now log none and send
    all 48, while the O2PC trace is byte-identical.
    """

    @pytest.mark.parametrize("scheme,crashes,explored,choice_points", [
        ("TWO_PL", 0, 32, 5),
        ("TWO_PL", 2, 200, 14),
        ("O2PC", 0, 32, 5),
        ("O2PC", 2, 200, 15),
        ("PAXOS", 0, 200, 19),
        ("PAXOS", 2, 200, 28),
        ("SHORT", 0, 32, 5),
        ("SHORT", 2, 200, 13),
    ])
    def test_census(self, scheme, crashes, explored, choice_points):
        report = ModelChecker(CheckConfig(
            scenario="conflict", protocol="P1", scheme=CommitScheme[scheme],
            depth=14, crashes=crashes, max_schedules=200,
        )).run()
        assert report.ok
        assert report.explored == explored
        assert report.first_run_choice_points == choice_points


class TestPolicies:
    def test_divergent_prefix_raises(self):
        policy = ChoicePolicy(prefix=(7,))
        with pytest.raises(ScheduleDivergence):
            policy.choose("deliver", ["a", "b"], [0, 1])

    def test_vector_records_choices(self):
        policy = ChoicePolicy(prefix=(1,))
        policy.choose("deliver", ["a", "b"], [0, 1])
        policy.choose("deliver", ["c", "d"], [0, 1])
        assert policy.vector == (1, 0)

    def test_random_policy_is_seed_deterministic(self):
        picks1 = [
            RandomPolicy(Rng(5)).choose("deliver", ["a", "b", "c"], [0, 1, 2])
            for _ in range(20)
        ]
        picks2 = [
            RandomPolicy(Rng(5)).choose("deliver", ["a", "b", "c"], [0, 1, 2])
            for _ in range(20)
        ]
        assert picks1 == picks2

    def test_random_policy_crash_bias(self):
        """crash_probability=0 always continues; =1 always crashes."""
        never = RandomPolicy(Rng(1), crash_probability=0.0)
        always = RandomPolicy(Rng(1), crash_probability=1.0)
        for _ in range(10):
            assert never.choose("crash", ["go", "c1", "c2"], [0, 1, 2]) == 0
            assert always.choose("crash", ["go", "c1", "c2"], [0, 1, 2]) != 0


class TestBudget:
    def test_step_budget_exceeded(self):
        policy = ChoicePolicy()
        env = ControlledEnvironment(policy, max_steps=3)

        def ticker():
            while True:
                yield env.timeout(1.0)

        env.process(ticker())
        with pytest.raises(StepBudgetExceeded):
            env.run()
