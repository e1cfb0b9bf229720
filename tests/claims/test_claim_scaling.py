"""CLAIM-SCALE — lock-hold windows versus transaction span.

Section 1: "since the protocol involves three rounds of messages ... the
delay can be intolerable."  Every extra participating site lengthens the
window in which an early-granted lock is held (sequential execution plus
the commit rounds) — under *both* schemes; O2PC subtracts the decision
round from every one of them, so it wins at every span, and with waiting
cascades on contended keys the absolute savings compound.
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


def run_once(scheme, span, seed=3):
    system = System(SystemConfig(
        scheme=scheme, n_sites=span, keys_per_site=12,
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=50, min_sites=span, max_sites=span,
        read_fraction=0.4, arrival_mean=3.0, zipf_theta=0.4,
    ), seed=seed)
    elapsed = gen.run()
    return system.metrics(elapsed)


@pytest.fixture(scope="module")
def span_sweep():
    rows = []
    for span in (2, 3, 5, 7):
        r2 = run_once(CommitScheme.TWO_PL, span)
        ro = run_once(CommitScheme.O2PC, span)
        rows.append(ExperimentResult(
            params={"sites_per_txn": span},
            measures={
                "hold_2pl": r2.mean_lock_hold,
                "hold_o2pc": ro.mean_lock_hold,
                "gap": r2.mean_lock_hold - ro.mean_lock_hold,
                "thru_2pl": r2.throughput,
                "thru_o2pc": ro.throughput,
            },
        ))
    return rows


def test_scaling_table(span_sweep):
    print()
    print(format_table(
        span_sweep,
        title="CLAIM-SCALE: lock-hold vs transaction span (sites/txn)",
    ))


def test_o2pc_wins_at_every_span(span_sweep):
    for row in span_sweep:
        assert row.measures["hold_o2pc"] < row.measures["hold_2pl"]


def test_holds_grow_with_span_under_both_schemes(span_sweep):
    holds_2pl = [r.measures["hold_2pl"] for r in span_sweep]
    holds_o2pc = [r.measures["hold_o2pc"] for r in span_sweep]
    assert holds_2pl == sorted(holds_2pl)
    assert holds_o2pc == sorted(holds_o2pc)


def test_o2pc_throughput_at_least_matches_at_every_span(span_sweep):
    for row in span_sweep:
        assert row.measures["thru_o2pc"] >= row.measures["thru_2pl"]
