"""Restarting from a checkpointed, truncated log equals restarting from the
full log: the same store and the same :class:`RestartReport`.

Every site's WAL is tapped: each record it appends, but for the fuzzy
checkpoints, is appended again to a *full* log that never checkpoints
(it starts from the same preload checkpoint).  Random seeded sim runs —
small stores, so checkpoints are frequent; forced NO votes, so O2PC
compensates; one site crash and restart each, so compensation runs from
a restarted, truncated log (FINDINGS §10's shape) — compare the two
restarts at random points and at the end, and run the recovery oracle
(a truncated-log restart against the live store).
"""

import pytest

from repro.check.oracles import _check_recovery
from repro.commit.base import CommitScheme
from repro.compensation import CompensationExecutor
from repro.harness.system import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.sim import Environment
from repro.sim.rng import Rng
from repro.storage import KVStore, RecordType, RecoveryManager, WriteAheadLog
from repro.txn import SemanticOp, Site
from repro.txn.transaction import TxnStatus
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

#: seeded runs per scheme
RUNS = 200

#: simulated time each run is judged at last: far past its arrivals
#: (~25), its crash (≤ 30) and outage (≤ 15), and every protocol timeout
HORIZON = 400.0


def tap(wal: WriteAheadLog) -> WriteAheadLog:
    """The full log of ``wal``: every record ``wal`` appends from now on,
    but for its checkpoints, appended again to a log that keeps it."""
    full = WriteAheadLog(f"{wal.site_id}.full")
    for record in wal:
        full.append(record.record_type, record.txn_id, **record.payload)
    append = wal.append

    def tapped(record_type, txn_id, *args, force=False, **kwargs):
        record = append(record_type, txn_id, *args, force=force, **kwargs)
        if record_type is not RecordType.CHECKPOINT:
            full.append(
                record_type, txn_id, key=record.key, before=record.before,
                after=record.after, force=force, op=record.op,
                **record.payload,
            )
        return record

    wal.append = tapped
    return full


def restarted(wal: WriteAheadLog):
    store = KVStore()
    report = RecoveryManager(store, wal.clone()).restart()
    return dict(store.items()), report


def assert_parity(system: System, full: dict[str, WriteAheadLog], when: str):
    for site_id, site in system.sites.items():
        truncated = restarted(site.wal)
        reference = restarted(full[site_id])
        assert truncated == reference, (
            f"restart parity: {site_id} at {when}: the truncated log "
            f"({len(site.wal)} of {site.wal.appended} records) restarts to "
            f"{truncated}, the full log to {reference}"
        )


def parity_run(scheme: CommitScheme, seed: int) -> System:
    rng = Rng(seed).fork("parity")
    system = System(SystemConfig(
        n_sites=3, scheme=scheme, keys_per_site=3, seed=seed,
    ))
    full = {sid: tap(site.wal) for sid, site in system.sites.items()}
    specs = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=16, abort_probability=0.3, zipf_theta=0.5,
    ), seed=seed).specs()
    system.failures.schedule(CrashPlan(
        rng.choice(sorted(system.sites)),
        at=rng.uniform(2.0, 30.0), duration=rng.uniform(1.0, 15.0),
    ))

    def probe():
        for _ in range(6):
            yield system.env.timeout(rng.uniform(1.0, 10.0))
            assert_parity(system, full, f"t={system.env.now:g}")

    system.env.process(probe(), name="parity-probe")
    system.submit_stream(specs, arrival_mean=1.5, seed=seed)
    # A horizon, not quiescence: this test judges parity; liveness is
    # test_a_coordinator_submitted_while_its_site_is_down_terminates's.
    system.env.run(until=HORIZON)
    assert_parity(system, full, "the end")
    return system


@pytest.mark.parametrize(
    "scheme", sorted(CommitScheme, key=lambda s: s.name), ids=lambda s: s.name,
)
def test_truncated_restart_equals_full_restart(scheme):
    checkpoints = truncated = 0
    for seed in range(RUNS):
        system = parity_run(scheme, seed)
        if len(system.outcomes) == len(system.specs):
            # Quiesced: nothing is in doubt, so a restart from the
            # truncated log must reproduce the live store.
            violations = _check_recovery(system)
            assert not violations, [str(v) for v in violations]
        for site in system.sites.values():
            checkpoints += site.wal.checkpoints
            truncated += site.wal.appended - len(site.wal)
    # the runs did checkpoint and truncate, or the parity says nothing
    assert checkpoints > RUNS and truncated > 10 * RUNS


def test_a_coordinator_submitted_while_its_site_is_down_terminates():
    """PAXOS seed 10 of the parity runs: T4 is submitted to S2 while S2
    is down.  A down site starts no coordinator: T4 ends at once,
    aborted, and S2 logs nothing for it.  (Once its coordinator ran and
    logged ``COORD_BEGIN``; S2's restart rebuilt a second one on the same
    endpoint, each took the other's acceptor replies, and termination
    rounds ran without end.)"""
    rng = Rng(10).fork("parity")
    system = System(SystemConfig(
        n_sites=3, scheme=CommitScheme.PAXOS, keys_per_site=3, seed=10,
    ))
    specs = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=16, abort_probability=0.3, zipf_theta=0.5,
    ), seed=10).specs()
    plan = CrashPlan(
        rng.choice(sorted(system.sites)),
        at=rng.uniform(2.0, 30.0), duration=rng.uniform(1.0, 15.0),
    )
    assert (plan.site_id, round(plan.at, 2), round(plan.duration, 2)) == (
        "S2", 8.40, 4.02,
    )
    system.failures.schedule(plan)
    system.submit_stream(specs, arrival_mean=1.5, seed=10)
    system.env.run(until=10 * HORIZON)
    assert len(system.outcomes) == 16
    assert system.env.peek() == float("inf")  # quiescent: nothing queued
    (t4,) = [o for o in system.outcomes if o.txn_id == "T4"]
    assert not t4.committed
    assert 8.40 < t4.start_time == t4.end_time < 12.42
    assert not system.sites["S2"].wal.knows("coord.T4")


def test_compensation_after_a_restart_from_a_checkpoint():
    """FINDINGS §10's shape across a checkpoint: settled work is
    checkpointed away while ``T1``'s locally committed deposit stays; the
    site crashes and restarts from the checkpoint; then ``T1`` is
    compensated semantically, keeping a withdrawal made after the
    restart."""
    env = Environment()
    site = Site(env, "S1")
    site.load({"k0": 100, "k1": 0})

    def run(gen):
        return env.run(env.process(gen))

    def settled_deposit(txn_id):
        site.ltm.begin(txn_id)
        run(site.ltm.run_ops(txn_id, [
            SemanticOp("deposit", "k1", {"amount": 1}),
        ]))
        site.ltm.commit(txn_id)

    for n in range(8):
        settled_deposit(f"L{n}")
    site.ltm.begin("T1")
    run(site.ltm.run_ops("T1", [SemanticOp("deposit", "k0", {"amount": 2})]))
    site.ltm.local_commit("T1")
    settled_deposit("L8")
    site.checkpoint()
    assert all(site.wal.forgot(f"L{n}") for n in range(8))
    assert not site.wal.forgot("T1")

    site.crash()
    report = site.restart()
    assert report.locally_committed == ["T1"]
    assert report.redone == sorted(["T1", *(f"L{n}" for n in range(9))])
    site.ltm.recover_locally_committed("T1")
    assert site.store.snapshot() == {"k0": 102, "k1": 9}

    site.ltm.begin("T2")
    run(site.ltm.run_ops("T2", [SemanticOp("withdraw", "k0", {"amount": 3})]))
    site.ltm.commit("T2")
    run(CompensationExecutor(site).run("T1"))
    assert site.ltm.status["T1"] is TxnStatus.COMPENSATED
    assert site.store.snapshot() == {"k0": 100 - 3, "k1": 9}
