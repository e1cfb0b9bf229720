"""LOG-FORCE — forced log writes: a cost the paper does not discuss.

Every 2PC participant force-writes its PREPARE record and the final
COMMIT/ABORT; the coordinator forces its decision.  O2PC adds one more
forced record per YES vote — LOCAL_COMMIT — because local commitment makes
the updates durable obligations (a crashed participant must redo them and
compensate, not undo).  This experiment counts forced writes per committed
transaction for both schemes: the optimistic protocol trades a small,
constant durability overhead for its lock-window gains.
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
    return report


@pytest.fixture(scope="module")
def force_rows():
    rows = []
    for label, scheme in (("2PC/2PL", CommitScheme.TWO_PL),
                          ("O2PC", CommitScheme.O2PC)):
        for p in (0.0, 0.25):
            report = run_once(scheme, p)
            done = report.committed + report.aborted
            rows.append(ExperimentResult(
                params={"scheme": label, "abort_p": p},
                measures={
                    "txns": done,
                    "forced_writes": report.forced_log_writes,
                    "forces_per_txn": report.forced_log_writes / done,
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


def test_abort_path_costs_more_forces_under_o2pc(force_rows):
    """Compensation transactions force their own COMMIT records."""
    by = {(r.params["scheme"], r.params["abort_p"]): r.measures
          for r in force_rows}
    assert (by[("O2PC", 0.25)]["forces_per_txn"]
            > by[("2PC/2PL", 0.25)]["forces_per_txn"])
