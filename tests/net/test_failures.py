"""Unit tests for the failure injector."""

from repro.net import FailureInjector, Network, SiteStatus
from repro.net.failures import CrashPlan
from repro.sim import Environment, Rng


def make_injector():
    env = Environment()
    net = Network(env, rng=Rng(0))
    inj = FailureInjector(env, net)
    return env, net, inj


def test_sites_start_up():
    env, net, inj = make_injector()
    inj.register_site("S1")
    assert inj.is_up("S1")
    assert inj.status("S1") is SiteStatus.UP
    # Unregistered sites default to UP.
    assert inj.is_up("S99")


def test_crash_and_recover_roundtrip():
    env, net, inj = make_injector()
    net.register("S1")
    inj.register_site("S1")
    inj.crash("S1")
    assert not inj.is_up("S1")
    assert net.is_down("S1")
    inj.recover("S1")
    assert inj.is_up("S1")
    assert not net.is_down("S1")


def test_crash_idempotent():
    env, net, inj = make_injector()
    net.register("S1")
    inj.crash("S1")
    inj.crash("S1")
    assert len(inj.outages) == 1
    inj.recover("S1")
    inj.recover("S1")
    assert inj.outages[0].end == 0.0


def test_scheduled_crash_plan_executes():
    env, net, inj = make_injector()
    net.register("S1")
    observed = []

    def watcher(env):
        yield env.timeout(5)
        observed.append(("at5", inj.is_up("S1")))
        yield env.timeout(10)
        observed.append(("at15", inj.is_up("S1")))

    inj.schedule(CrashPlan(site_id="S1", at=3.0, duration=8.0))
    env.process(watcher(env))
    env.run()
    assert observed == [("at5", False), ("at15", True)]


def test_permanent_crash_never_recovers():
    env, net, inj = make_injector()
    net.register("S1")
    inj.schedule(CrashPlan(site_id="S1", at=1.0, duration=None))
    env.run(until=100.0)
    assert not inj.is_up("S1")


def test_callbacks_fire():
    env, net, inj = make_injector()
    net.register("S1")
    events = []
    inj.on_crash(lambda s: events.append(("crash", s)))
    inj.on_recover(lambda s: events.append(("recover", s)))
    inj.crash("S1")
    inj.recover("S1")
    assert events == [("crash", "S1"), ("recover", "S1")]
