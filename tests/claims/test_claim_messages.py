"""CLAIM-MSG — O2PC (and O2PC/P1) adds no messages over standard 2PC.

Section 7: "it makes no changes to the message transfer pattern or the
structure of the standard 2PC protocol."  The table counts every wire
message per scheme on identical workloads, commit and abort paths alike.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import ExperimentResult, System, SystemConfig, format_table
from repro.workload import WorkloadConfig, WorkloadGenerator


def run_counts(scheme, protocol, abort_probability, seed=3):
    system = System(SystemConfig(
        scheme=scheme, protocol=protocol, n_sites=4, keys_per_site=100,
    ))
    gen = WorkloadGenerator(
        system,
        WorkloadConfig(
            n_transactions=40, abort_probability=abort_probability,
            arrival_mean=6.0,
            # All-read workload: zero data conflicts, so the message trace
            # is a pure function of the protocol (no deadlock-victim noise).
            read_fraction=1.0,
        ),
        seed=seed,
    )
    gen.run()
    counts = system.network.counts_by_type()
    counts["TOTAL"] = system.network.total_sent()
    return counts


@pytest.fixture(scope="module")
def message_matrix():
    rows = []
    for label, scheme, protocol in (
        ("2PC/2PL", CommitScheme.TWO_PL, "none"),
        ("O2PC", CommitScheme.O2PC, "none"),
        ("O2PC/P1", CommitScheme.O2PC, "P1"),
        ("O2PC/P2", CommitScheme.O2PC, "P2"),
    ):
        for p in (0.0, 0.3):
            counts = run_counts(scheme, protocol, p)
            rows.append(ExperimentResult(
                params={"scheme": label, "abort_p": p},
                measures=dict(counts),
            ))
    return rows


def test_message_table(message_matrix):
    print()
    print(format_table(
        message_matrix, title="CLAIM-MSG: wire messages by scheme",
        precision=2,
    ))


def test_o2pc_identical_to_2pc(message_matrix):
    by_key = {
        (r.params["scheme"], r.params["abort_p"]): r.measures
        for r in message_matrix
    }
    for p in (0.0, 0.3):
        assert by_key[("O2PC", p)] == by_key[("2PC/2PL", p)]


def test_p1_adds_nothing_without_aborts(message_matrix):
    """Section 6: P1's marking sets cost nothing while the optimistic
    assumption holds — at 0% aborts the message trace is bit-identical.
    (P2 is different by nature: its locally-committed marks exist during
    *every* commit window, so it can reject transactions even without
    aborts — the dual's inherent cost.)"""
    by_key = {
        (r.params["scheme"], r.params["abort_p"]): r.measures
        for r in message_matrix
    }
    assert by_key[("O2PC/P1", 0.0)] == by_key[("O2PC", 0.0)]


def test_marking_protocols_add_no_message_types(message_matrix):
    """Under aborts, R1 rejections re-send *existing* execution-phase
    messages (SUBTXN_REQ retries); the protocol introduces no new message
    types and no extra commit-protocol rounds."""
    by_key = {
        (r.params["scheme"], r.params["abort_p"]): r.measures
        for r in message_matrix
    }
    base_types = set(by_key[("O2PC", 0.3)])
    for scheme in ("O2PC/P1", "O2PC/P2"):
        measures = by_key[(scheme, 0.3)]
        assert set(measures) <= base_types
        # Commit-protocol rounds never exceed one per transaction per site.
        assert measures["VOTE_REQ"] <= by_key[("O2PC", 0.3)]["VOTE_REQ"]
