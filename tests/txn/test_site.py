"""Unit tests for the Site composition root: load, crash, restart."""

from repro.commit.base import CommitScheme
from repro.harness.system import System, SystemConfig
from repro.sim import Environment
from repro.storage.wal import RecordType
from repro.txn import Site, WriteOp
from repro.txn.transaction import TxnStatus
from repro.workload import WorkloadConfig, WorkloadGenerator


def make_site():
    env = Environment()
    site = Site(env, "S1")
    site.load({"a": 1, "b": 2})
    return env, site


def run(env, gen):
    return env.run(env.process(gen))


def test_load_logs_an_unforced_checkpoint():
    env, site = make_site()
    assert site.store.get("a") == 1
    (record,) = list(site.wal)
    assert record.record_type is RecordType.CHECKPOINT
    assert record.payload == {"snapshot": {"a": 1, "b": 2}}
    assert site.wal.forced_writes == 0


def test_crash_wipes_volatile_state():
    env, site = make_site()

    def txn():
        site.ltm.begin("T1")
        yield from site.ltm.execute("T1", WriteOp("a", 9))

    run(env, txn())
    old_locks = site.locks
    site.crash()
    assert len(site.store) == 0
    assert site.locks is not old_locks
    assert site.locks.locks_of("T1") == {}
    assert site.crash_count == 1
    # The in-flight transaction is abandoned.
    assert site.ltm.status["T1"] is TxnStatus.ABORTED


def test_crash_keeps_the_lock_logs():
    # The lock table is volatile; what it measured before the crash is
    # not: report_from_logs and the crash drill read these intervals.
    system = System(SystemConfig(n_sites=3, scheme=CommitScheme.O2PC, seed=1))
    specs = WorkloadGenerator(
        system, WorkloadConfig(n_transactions=20), seed=1,
    ).specs()
    system.submit_stream(specs, arrival_mean=2.0, seed=1)
    system.env.run(until=40)
    locks = system.sites["S1"].locks
    logged = (
        list(locks.hold_log), list(locks.wait_log),
        list(locks.detector.detected),
    )
    assert len(logged[0]) == 27
    system.failures.crash("S1")
    after = system.sites["S1"].locks
    assert after is not locks
    assert (
        list(after.hold_log), list(after.wait_log),
        list(after.detector.detected),
    ) == logged


def test_wal_survives_crash_and_drives_restart():
    env, site = make_site()

    def committed_txn():
        site.ltm.begin("L1")
        yield from site.ltm.execute("L1", WriteOp("a", 9))
        site.ltm.commit("L1")

    def in_flight_txn():
        site.ltm.begin("T2")
        yield from site.ltm.execute("T2", WriteOp("b", 99))

    run(env, committed_txn())
    run(env, in_flight_txn())
    site.crash()
    report = site.restart()
    assert site.store.get("a") == 9       # committed work redone
    assert site.store.get("b") == 2       # in-flight work undone
    assert "L1" in report.redone
    assert "T2" in report.undone


def test_repeated_crashes_counted():
    env, site = make_site()
    site.crash()
    site.restart()
    site.crash()
    assert site.crash_count == 2


def test_op_duration_applied_per_operation():
    env = Environment()
    site = Site(env, "S1", op_duration=2.0)

    def txn():
        site.ltm.begin("L1")
        yield from site.ltm.run_ops("L1", [WriteOp("a", 1), WriteOp("b", 2)])
        site.ltm.commit("L1")
        return env.now

    assert run(env, txn()) == 4.0
