"""Unit tests for the event bus, the taxonomy, and system-level recording."""

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.obs.events import EventBus, EventLog, LockGranted, TxnSubmitted
from repro.sim import Environment
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec
from repro.workload import WorkloadConfig, WorkloadGenerator


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def spec(txn_id="T1", sites=("S1", "S2")):
    return GlobalTxnSpec(txn_id=txn_id, subtxns=[
        SubtxnSpec(s, [SemanticOp("deposit", "k0", {"amount": 1})])
        for s in sites
    ])


def observed_workload(seed=7, n=12, scheme=CommitScheme.O2PC,
                      observability=True):
    system = System(SystemConfig(
        scheme=scheme, protocol="P1", observability=observability,
        seed=seed,
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=n, abort_probability=0.3, read_fraction=0.4,
        arrival_mean=2.0, zipf_theta=0.6,
    ), seed=seed)
    elapsed = gen.run()
    return system, elapsed


class TestEventBus:
    def test_disabled_by_default(self):
        assert not Environment().bus.enabled
        assert not EventBus().enabled

    def test_publish_stamps_ts_and_seq(self):
        clock = FakeClock(3.5)
        bus = EventBus(clock=clock)
        first = bus.publish(TxnSubmitted(txn_id="T1", sites=("S1",)))
        clock.now = 4.0
        second = bus.publish(LockGranted(
            site_id="S1", txn_id="T1", key="k0", mode="X", waited=0.5,
        ))
        assert (first.ts, first.seq) == (3.5, 0)
        assert (second.ts, second.seq) == (4.0, 1)

    def test_subscribers_called_in_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda e: calls.append("a"))
        bus.subscribe(lambda e: calls.append("b"))
        bus.publish(TxnSubmitted(txn_id="T1", sites=()))
        assert calls == ["a", "b"]

    def test_subscribe_is_idempotent(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        bus.subscribe(log)
        bus.publish(TxnSubmitted(txn_id="T1", sites=()))
        assert len(log) == 1

    def test_unsubscribe(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        bus.unsubscribe(log)
        bus.unsubscribe(log)  # no-op when absent
        bus.publish(TxnSubmitted(txn_id="T1", sites=()))
        assert len(log) == 0

    def test_unsubscribe_inside_a_callback_skips_no_one(self):
        bus = EventBus()
        log = EventLog()

        def once(event):
            bus.unsubscribe(once)

        bus.subscribe(once)
        bus.subscribe(log)
        bus.publish(TxnSubmitted(txn_id="T1", sites=()))
        bus.publish(TxnSubmitted(txn_id="T2", sites=()))
        assert len(log) == 2
        assert bus.has_subscribers
        bus.unsubscribe(log)
        assert not bus.has_subscribers


class TestEventLog:
    def make_log(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        bus.publish(TxnSubmitted(txn_id="T1", sites=("S1",)))
        bus.publish(TxnSubmitted(txn_id="T2", sites=("S2",)))
        bus.publish(LockGranted(
            site_id="S1", txn_id="T1", key="k0", mode="S", waited=0.0,
        ))
        return log

    def test_len(self):
        assert len(self.make_log()) == 3


class TestSystemRecording:
    def test_disabled_by_default_records_nothing(self):
        system = System()
        system.run_transaction(spec())
        system.env.run()
        assert not system.obs.enabled
        assert system.obs._log is None
        assert system.events() == []
        assert system.spans() == {}

    def test_enabled_records_full_lifecycle(self):
        system = System(SystemConfig(
            scheme=CommitScheme.O2PC, observability=True,
        ))
        system.run_transaction(spec())
        system.env.run()
        events = system.events()
        kinds = {e.kind for e in events}
        assert {
            "txn.submit", "txn.phase", "txn.vote", "txn.decision",
            "txn.end", "subtxn.start", "subtxn.exec", "subtxn.local_commit",
            "subtxn.decision", "lock.request", "lock.grant", "lock.release",
            "net.send", "net.deliver",
        } <= kinds

    def test_seq_is_gap_free_and_ts_monotone(self):
        system = System(SystemConfig(observability=True))
        system.run_transaction(spec())
        system.env.run()
        events = system.events()
        assert [e.seq for e in events] == list(range(len(events)))
        assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))

    def test_enable_observability_is_idempotent(self):
        system = System()
        system.obs.enable()
        system.obs.enable()
        system.run_transaction(spec())
        system.env.run()
        assert len([e for e in system.events() if e.kind == "txn.end"]) == 1

    def test_disable_keeps_recorded_events(self):
        system = System(SystemConfig(observability=True))
        system.run_transaction(spec("T1"))
        recorded = len(system.events())
        system.obs.disable()
        system.run_transaction(spec("T2"))
        system.env.run()
        assert len(system.events()) == recorded


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self):
        first, _ = observed_workload(seed=7)
        second, _ = observed_workload(seed=7)
        text = first.obs.jsonl()
        assert text  # nonempty stream
        assert text == second.obs.jsonl()

    def test_different_seeds_differ(self):
        first, _ = observed_workload(seed=7)
        second, _ = observed_workload(seed=8)
        assert first.obs.jsonl() != second.obs.jsonl()
