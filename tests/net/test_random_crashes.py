"""Seeded random crash schedules (random_crash_plans, run by FailureInjector)."""

import pytest

from repro.net.failures import (
    FailureInjector,
    RandomCrashConfig,
    random_crash_plans,
)
from repro.net.network import Network
from repro.sim.engine import Environment
from repro.sim.rng import Rng


def _injector():
    env = Environment()
    return env, FailureInjector(env, Network(env, rng=Rng(9)))


class TestDrawing:
    def test_same_seed_same_plans(self):
        plans1 = random_crash_plans(Rng(42), ["S1", "S2", "S3"])
        plans2 = random_crash_plans(Rng(42), ["S1", "S2", "S3"])
        assert plans1 == plans2

    def test_different_seeds_differ(self):
        plans1 = random_crash_plans(Rng(1), ["S1", "S2", "S3"])
        plans2 = random_crash_plans(Rng(2), ["S1", "S2", "S3"])
        assert plans1 != plans2

    def test_plans_sorted_by_crash_time(self):
        plans = random_crash_plans(
            Rng(7), ["S1", "S2"], RandomCrashConfig(n_crashes=8)
        )
        assert [p.at for p in plans] == sorted(p.at for p in plans)

    def test_config_bounds_respected(self):
        config = RandomCrashConfig(
            n_crashes=50, window=(10.0, 20.0),
            min_outage=1.0, max_outage=2.0,
        )
        for plan in random_crash_plans(Rng(3), ["S1"], config):
            assert 10.0 <= plan.at <= 20.0
            assert plan.duration is not None
            assert 1.0 <= plan.duration <= 2.0

    def test_permanent_probability_one_never_recovers(self):
        config = RandomCrashConfig(n_crashes=5, permanent_probability=1.0)
        plans = random_crash_plans(Rng(3), ["S1"], config)
        assert all(plan.duration is None for plan in plans)

    def test_no_sites_is_an_error(self):
        with pytest.raises(ValueError):
            random_crash_plans(Rng(0), [])


class TestScheduling:
    def test_schedule_random_executes_deterministically(self):
        observed = []
        for _ in range(2):
            env, injector = _injector()
            for site in ("S1", "S2"):
                injector.register_site(site)
            plans = random_crash_plans(
                Rng(11), ["S1", "S2"],
                RandomCrashConfig(n_crashes=3, window=(0.0, 30.0)),
            )
            for plan in plans:
                injector.schedule(plan)
            env.run(until=100.0)
            observed.append([
                (o.site_id, o.start, o.end) for o in injector.outages
            ])
            assert len(plans) == 3
        assert observed[0] == observed[1]
        assert observed[0]  # some outage actually happened

    def test_scheduled_sites_recover_after_outage(self):
        env, injector = _injector()
        for plan in random_crash_plans(
            Rng(5), ["S1"],
            RandomCrashConfig(n_crashes=1, window=(1.0, 2.0),
                              min_outage=3.0, max_outage=4.0),
        ):
            injector.schedule(plan)
        env.run(until=50.0)
        assert injector.is_up("S1")
        outage = injector.outages[0]
        assert outage.end is not None
        assert 3.0 <= outage.end - outage.start <= 4.0
