"""LOG-FORCE — forced log writes: a cost the paper does not discuss.

Every 2PC participant force-writes its PREPARE record and the final
COMMIT/ABORT; the coordinator forces its decision (its DECIDE record, in
the WAL of the transaction's first site, which hosts it).  O2PC adds one more
forced record per YES vote — LOCAL_COMMIT — because local commitment makes
the updates durable obligations (a crashed participant must redo them and
compensate, not undo).  This experiment counts forced writes per committed
transaction for both schemes: the optimistic protocol trades a small,
constant durability overhead for its lock-window gains.

Paxos Commit moves the vote's durability into its acceptors: Gray &
Lamport count each acceptor's phase-2b acceptance as a stable write, and
the acceptors' logs are counted here beside the sites'.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import (
    ExperimentResult,
    System,
    SystemConfig,
    format_table,
)
from repro.workload import WorkloadConfig, WorkloadGenerator


def run_once(scheme, abort_p=0.0, seed=6):
    system = System(SystemConfig(
        scheme=scheme, n_sites=3, keys_per_site=100,
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=40, abort_probability=abort_p,
        arrival_mean=5.0, read_fraction=0.5,
        min_sites=2, max_sites=2,
    ), seed=seed)
    elapsed = gen.run()
    report = system.metrics(elapsed)
    return report, system


@pytest.fixture(scope="module")
def force_rows():
    rows = []
    for label, scheme in (("2PC/2PL", CommitScheme.TWO_PL),
                          ("O2PC", CommitScheme.O2PC),
                          ("PAXOS", CommitScheme.PAXOS)):
        for p in (0.0, 0.25):
            report, system = run_once(scheme, p)
            done = report.committed + report.aborted
            acceptor_forces = sum(
                acceptor.wal.forced_writes
                for acceptor in system.acceptors.values()
            )
            rows.append(ExperimentResult(
                params={"scheme": label, "abort_p": p},
                measures={
                    "txns": done,
                    "committed": report.committed,
                    "forced_writes": report.forced_log_writes,
                    "forces_per_txn": report.forced_log_writes / done,
                    "acceptor_forces": acceptor_forces,
                },
            ))
    return rows


def test_force_table(force_rows):
    print()
    print(format_table(
        force_rows, title="LOG-FORCE: forced log writes per transaction",
    ))


def test_o2pc_pays_one_extra_force_per_participant(force_rows):
    by = {(r.params["scheme"], r.params["abort_p"]): r.measures
          for r in force_rows}
    gap = (by[("O2PC", 0.0)]["forces_per_txn"]
           - by[("2PC/2PL", 0.0)]["forces_per_txn"])
    # Two participants per transaction -> two extra LOCAL_COMMIT forces.
    assert gap == pytest.approx(2.0, abs=0.01)


def test_2pc_forces_two_per_participant_and_one_decide(force_rows):
    """A committed 2-site 2PC transaction: PREPARE and COMMIT at each
    participant, plus the coordinator's DECIDE."""
    by = {(r.params["scheme"], r.params["abort_p"]): r.measures
          for r in force_rows}
    assert by[("2PC/2PL", 0.0)]["forces_per_txn"] == pytest.approx(2 * 2 + 1)


def test_abort_path_costs_more_forces_under_o2pc(force_rows):
    """Compensation transactions force their own COMMIT records."""
    by = {(r.params["scheme"], r.params["abort_p"]): r.measures
          for r in force_rows}
    assert (by[("O2PC", 0.25)]["forces_per_txn"]
            > by[("2PC/2PL", 0.25)]["forces_per_txn"])


def test_paxos_acceptors_force_a_quorum_per_instance(force_rows):
    """Each of N instances needs F+1 acceptors to force its accept."""
    by = {(r.params["scheme"], r.params["abort_p"]): r.measures
          for r in force_rows}
    paxos = by[("PAXOS", 0.0)]
    n_instances, quorum = 2, 2  # two sites per txn; 2F+1 = 3 acceptors
    assert paxos["committed"] > 0
    assert (paxos["acceptor_forces"] / paxos["committed"]
            >= n_instances * quorum)
    # The sites force what 2PC's sites force; the acceptors' are on top.
    assert (paxos["forced_writes"] - paxos["acceptor_forces"]
            == by[("2PC/2PL", 0.0)]["forced_writes"])
