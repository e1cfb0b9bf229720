"""The head-to-head comparison harness behind ``repro compare``.

One module-scoped run of :func:`compare_schemes` backs most assertions
(each call simulates a contention leg plus a 400-unit crash drill per
scheme, so re-running it per test would dominate the suite).
"""

import pytest

from repro.cli import main
from repro.harness.compare import compare_schemes, percentile
from repro.protocols import ENGINES


@pytest.fixture(scope="module")
def results():
    return compare_schemes(seed=0, transactions=6)


EXPECTED_METRICS = {
    "transactions", "committed", "abort_rate",
    "compensation_rate", "messages_per_txn", "lock_hold_p50",
    "lock_hold_p99", "blocking_time", "decided_in_outage",
}


class TestCoverage:
    def test_every_registered_scheme_gets_a_block(self, results):
        expected = sorted(
            f"compare_{s.name}" for s in ENGINES
        )
        assert sorted(results) == expected

    def test_every_block_carries_the_full_metric_set(self, results):
        for key, block in results.items():
            assert set(block) == EXPECTED_METRICS, key
            assert block["transactions"] == 6.0


class TestProtocolNarrative:
    """The numbers must tell the paper's story, not just exist."""

    def test_paxos_terminates_during_the_outage(self, results):
        assert results["compare_PAXOS"]["decided_in_outage"] == 1.0
        assert results["compare_TWO_PL"]["decided_in_outage"] == 0.0
        assert (
            results["compare_PAXOS"]["blocking_time"]
            < results["compare_TWO_PL"]["blocking_time"]
        )

    def test_paxos_pays_in_messages(self, results):
        # 2F+1 acceptors turn every vote into a broadcast: the message
        # bill must clearly exceed the plain 2PC round count.
        assert (
            results["compare_PAXOS"]["messages_per_txn"]
            > results["compare_TWO_PL"]["messages_per_txn"]
        )

    def test_short_never_compensates(self, results):
        assert results["compare_SHORT"]["compensation_rate"] == 0.0
        assert results["compare_TWO_PL"]["compensation_rate"] == 0.0
        # O2PC is the only scheme that trades aborts for compensating
        # actions (the workload forces NO votes at 15%).
        assert results["compare_O2PC"]["compensation_rate"] > 0.0

    def test_early_release_shortens_the_lock_tail(self, results):
        # O2PC and Short-Commit release at the vote; the 2PC family holds
        # through the decision round-trip.
        for early in ("compare_O2PC", "compare_SHORT"):
            assert (
                results[early]["lock_hold_p99"]
                <= results["compare_TWO_PL"]["lock_hold_p99"]
            ), early


class TestVoteTimeoutSweep:
    def test_sweep_produces_one_block_per_timeout(self):
        results = compare_schemes(
            seed=0, transactions=2, vote_timeouts=(5.0, 20.0),
        )
        paxos_keys = sorted(k for k in results if "PAXOS" in k)
        assert paxos_keys == ["compare_PAXOS@vt20", "compare_PAXOS@vt5"]
        assert results["compare_PAXOS@vt5"]["vote_timeout"] == 5.0
        assert results["compare_PAXOS@vt20"]["vote_timeout"] == 20.0

    def test_swept_timeout_reaches_the_coordinator(self):
        # A vote timeout shorter than one round trip must abort every
        # transaction of every scheme: the swept value, not the default,
        # is what the coordinators wait with.
        results = compare_schemes(seed=0, transactions=2, vote_timeouts=(0.5,))
        assert len(results) == len(ENGINES)
        for key, block in results.items():
            assert block["committed"] == 0.0, key
            assert block["abort_rate"] == 1.0, key


class TestPercentile:
    # The lock-hold columns use the shared nearest-rank percentile.
    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 100) == 5.0

    def test_single_sample(self):
        assert percentile([2.5], 95) == 2.5


class TestCompareCli:
    def test_same_seed_prints_byte_identical_output(self, capsys):
        # Every column is simulation-derived: no wall clock in the table.
        outputs = []
        for _ in range(2):
            assert main(["compare", "--seed", "0"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        _, header, _, *rows = outputs[0].splitlines()
        assert "decided_in_outage" in header
        assert sorted(row.split()[0] for row in rows) == sorted(
            s.name for s in ENGINES
        )
