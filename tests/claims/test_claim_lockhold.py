"""CLAIM-LOCK — early lock release shrinks the lock-hold window.

Section 2: under distributed 2PL locks are held until the DECISION message
arrives; under O2PC they are released when the site votes.  The hold window
therefore differs by the decision round (decision-log delay + one message
hop), and the gap grows linearly with message latency.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import (
    ExperimentResult,
    System,
    SystemConfig,
    format_table,
)
from repro.net.network import LatencyModel
from repro.workload import WorkloadConfig, WorkloadGenerator


def run_once(scheme, latency_base=1.0, n_sites=4, n_txns=60, seed=2):
    # Low contention (many keys, spaced arrivals) isolates the protocol's
    # own lock-hold window from queueing effects.
    system = System(SystemConfig(
        scheme=scheme, n_sites=n_sites, keys_per_site=100,
        latency=LatencyModel(base=latency_base),
    ))
    gen = WorkloadGenerator(
        system,
        WorkloadConfig(
            n_transactions=n_txns, read_fraction=0.3,
            arrival_mean=4.0 * latency_base,
        ),
        seed=seed,
    )
    elapsed = gen.run()
    return system.metrics(elapsed)


@pytest.fixture(scope="module")
def latency_sweep():
    rows = []
    for base in (0.5, 1.0, 2.0, 4.0):
        r_2pl = run_once(CommitScheme.TWO_PL, latency_base=base)
        r_o2pc = run_once(CommitScheme.O2PC, latency_base=base)
        rows.append(ExperimentResult(
            params={"latency": base},
            measures={
                "hold_2pl": r_2pl.mean_lock_hold,
                "hold_o2pc": r_o2pc.mean_lock_hold,
                "gap": r_2pl.mean_lock_hold - r_o2pc.mean_lock_hold,
                "wait_2pl": r_2pl.mean_lock_wait,
                "wait_o2pc": r_o2pc.mean_lock_wait,
            },
        ))
    return rows


def test_lockhold_table(latency_sweep):
    print()
    print(format_table(
        latency_sweep,
        title="CLAIM-LOCK: mean lock-hold time vs message latency",
    ))


def test_o2pc_always_holds_shorter(latency_sweep):
    for row in latency_sweep:
        assert row.measures["hold_o2pc"] < row.measures["hold_2pl"]


def test_gap_grows_with_latency(latency_sweep):
    gaps = [row.measures["gap"] for row in latency_sweep]
    assert gaps == sorted(gaps)
    # Roughly linear: the decision round costs about one message hop plus
    # the 0.5 decision-log delay per transaction.
    assert gaps[-1] > gaps[0] * 3


def test_o2pc_reduces_waiting(latency_sweep):
    """Shorter holds -> less data contention (the performance argument)."""
    total_2pl = sum(r.measures["wait_2pl"] for r in latency_sweep)
    total_o2pc = sum(r.measures["wait_o2pc"] for r in latency_sweep)
    assert total_o2pc <= total_2pl
