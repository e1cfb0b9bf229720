"""THM2 — Theorem 2: atomicity of compensation.

On correct histories where every ``CT_i`` writes a superset of ``T_i``'s
writes (our compensations do, by construction), no transaction reads from
both ``T_i`` and ``CT_i``.  Verified over P1-protected simulated runs with
heavy aborts; the unprotected showcase interleaving is the counterexample
showing the theorem's correctness hypothesis is necessary.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import ExperimentResult, System, SystemConfig, format_table
from repro.ids import compensated_txn_id, is_compensation_id
from repro.sg import check_atomicity_of_compensation
from repro.sg.atomicity import compensation_writes_cover
from repro.workload import WorkloadConfig, WorkloadGenerator


def run_protected(seed):
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, protocol="P1",
        n_sites=4, keys_per_site=10,
    ))
    gen = WorkloadGenerator(
        system,
        WorkloadConfig(
            n_transactions=60, abort_probability=0.3,
            read_fraction=0.5, arrival_mean=2.0, zipf_theta=0.5,
        ),
        seed=seed,
    )
    gen.run()
    return system


@pytest.fixture(scope="module")
def atomicity_rows():
    rows = []
    for seed in (1, 2, 3):
        system = run_protected(seed)
        history = system.global_history()
        report = check_atomicity_of_compensation(history)
        compensated = {
            compensated_txn_id(n)
            for site in history.sites.values()
            for n in site.transactions() if is_compensation_id(n)
        }
        covered = sum(
            compensation_writes_cover(history, t) for t in compensated
        )
        rows.append(ExperimentResult(
            params={"seed": seed},
            measures={
                "compensated_txns": len(compensated),
                "ct_writes_cover_t": covered,
                "mixed_readers": len(report.violations),
            },
        ))
    return rows


def test_atomicity_table(atomicity_rows):
    print()
    print(format_table(
        atomicity_rows,
        title="THM2: atomicity of compensation under P1",
        precision=0,
    ))


def test_no_transaction_reads_from_both(atomicity_rows):
    for row in atomicity_rows:
        assert row.measures["mixed_readers"] == 0


def test_precondition_holds_by_construction(atomicity_rows):
    """Our compensations always write >= the forward writes."""
    for row in atomicity_rows:
        assert (
            row.measures["ct_writes_cover_t"]
            == row.measures["compensated_txns"]
        )


def test_runs_actually_compensated(atomicity_rows):
    assert any(r.measures["compensated_txns"] > 0 for r in atomicity_rows)
