"""CLAIM-AUTON — autonomy, quantified.

Section 1: under 2PC a site that votes YES "becomes a subordinate of the
external coordinator" — its resources are pledged until the decision
arrives, and "a site belonging to a competing organization can harmfully or
mistakenly block the local resources".  The measurable quantity is the
**subordination window**: how long each site holds locks on behalf of a
transaction *after* voting.  Under O2PC it is identically zero.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import ExperimentResult, System, SystemConfig, format_table
from repro.net import LatencyModel
from repro.workload import WorkloadConfig, WorkloadGenerator


def subordination_windows(scheme, latency=1.0, seed=4):
    """Per-site lock-hold time past the vote, across a workload."""
    system = System(SystemConfig(
        scheme=scheme, n_sites=3, keys_per_site=100,
        latency=LatencyModel(base=latency), seed=seed,
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=30, arrival_mean=5.0, read_fraction=0.3,
    ), seed=seed)
    gen.run()

    windows = []
    for outcome in system.outcomes:
        spec = system.coordinators[outcome.txn_id].spec
        # The vote happens one hop after the coordinator's VOTE_REQ; the
        # participant's own clock for it is the moment its locks shrink to
        # the post-vote set.  Measure: last lock release minus first
        # possible vote time — under O2PC both coincide.
        for sub in spec.subtxns:
            holds = [
                h for h in system.sites[sub.site_id].locks.hold_log
                if h.txn_id == outcome.txn_id
            ]
            if not holds:
                continue
            vote_time = min(
                h.released_at for h in holds
            )  # earliest release = vote moment (S locks or full release)
            last_release = max(h.released_at for h in holds)
            windows.append(last_release - vote_time)
    return windows


@pytest.fixture(scope="module")
def autonomy_rows():
    rows = []
    for latency in (1.0, 3.0):
        w2 = subordination_windows(CommitScheme.TWO_PL, latency)
        wo = subordination_windows(CommitScheme.O2PC, latency)
        rows.append(ExperimentResult(
            params={"latency": latency},
            measures={
                "subordination_2pl": sum(w2) / len(w2),
                "subordination_o2pc": sum(wo) / len(wo),
                "max_2pl": max(w2),
                "max_o2pc": max(wo),
            },
        ))
    return rows


def test_autonomy_table(autonomy_rows):
    print()
    print(format_table(
        autonomy_rows,
        title="CLAIM-AUTON: post-vote lock pledge (subordination window)",
    ))


def test_o2pc_subordination_is_zero(autonomy_rows):
    for row in autonomy_rows:
        assert row.measures["subordination_o2pc"] == 0.0
        assert row.measures["max_o2pc"] == 0.0


def test_2pl_subordination_is_a_decision_round(autonomy_rows):
    """The window proxy (last release minus earliest release) reads 0 for
    single-lock subtransactions, so the *max* carries the exact claim:
    one vote hop + the forced decision log + one decision hop."""
    for row in autonomy_rows:
        latency = row.params["latency"]
        assert row.measures["max_2pl"] == pytest.approx(
            2 * latency + 0.5, abs=0.01,
        )
        assert 0 < row.measures["subordination_2pl"] < row.measures["max_2pl"]
