"""CLAIM-THRU — the optimistic assumption and its crossover.

Section 2: "If finally the transaction is to be aborted ... the overhead
incurred by the protocol is likely to outweigh its benefits" when the
optimistic assumption fails.  Sweeping the abort-vote probability from 0 to
0.5 under a contended workload: O2PC wins on waiting/latency at low abort
rates (early release), while its compensation overhead grows linearly with
aborts — the regime where 2PL's simple roll-back is the cheaper undo.
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


def run_once(scheme, abort_probability, seed):
    system = System(SystemConfig(scheme=scheme, n_sites=4, keys_per_site=8))
    gen = WorkloadGenerator(
        system,
        WorkloadConfig(
            n_transactions=80,
            abort_probability=abort_probability,
            read_fraction=0.4,
            arrival_mean=2.0,
            zipf_theta=0.6,
        ),
        seed=seed,
    )
    elapsed = gen.run()
    return system.metrics(elapsed)


@pytest.fixture(scope="module")
def abort_sweep():
    rows = []
    for p in (0.0, 0.1, 0.25, 0.5):
        m_2pl = [run_once(CommitScheme.TWO_PL, p, s) for s in (1, 2, 3, 4)]
        m_o2 = [run_once(CommitScheme.O2PC, p, s) for s in (1, 2, 3, 4)]

        def avg(ms, attr):
            return sum(getattr(m, attr) for m in ms) / len(ms)

        rows.append(ExperimentResult(
            params={"abort_p": p},
            measures={
                "thru_2pl": avg(m_2pl, "throughput"),
                "thru_o2pc": avg(m_o2, "throughput"),
                "wait_2pl": avg(m_2pl, "total_lock_wait"),
                "wait_o2pc": avg(m_o2, "total_lock_wait"),
                "compensations": avg(m_o2, "compensations"),
                "lat_2pl": avg(m_2pl, "mean_latency"),
                "lat_o2pc": avg(m_o2, "mean_latency"),
            },
        ))
    return rows


def test_crossover_table(abort_sweep):
    print()
    print(format_table(
        abort_sweep,
        title="CLAIM-THRU: throughput / waiting vs abort probability",
    ))


def test_o2pc_wins_when_aborts_rare(abort_sweep):
    row = abort_sweep[0]  # abort_p = 0
    assert row.measures["wait_o2pc"] < row.measures["wait_2pl"]
    assert row.measures["thru_o2pc"] > row.measures["thru_2pl"]
    assert row.measures["compensations"] == 0


def test_compensation_overhead_grows_with_aborts(abort_sweep):
    comps = [r.measures["compensations"] for r in abort_sweep]
    assert comps[0] == 0
    assert comps[-1] > comps[1] > 0


def test_o2pc_advantage_shrinks_as_aborts_grow(abort_sweep):
    """The crossover shape: O2PC's relative advantage at 0% aborts exceeds
    its advantage at 50% aborts (compensations re-lock data and redo work,
    eroding the early-release gain)."""

    def thru_ratio(row):
        return row.measures["thru_o2pc"] / max(row.measures["thru_2pl"], 1e-9)

    def wait_ratio(row):
        return row.measures["wait_2pl"] / max(row.measures["wait_o2pc"], 1e-9)

    assert thru_ratio(abort_sweep[0]) > thru_ratio(abort_sweep[-1])
    assert wait_ratio(abort_sweep[0]) > wait_ratio(abort_sweep[-1])
