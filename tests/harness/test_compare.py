"""The head-to-head comparison harness behind ``repro compare``.

One module-scoped run of :func:`compare_schemes` backs most assertions
(each call simulates a contention leg plus a 400-unit crash drill per
scheme, so re-running it per test would dominate the suite).
"""

import json

import pytest

from repro.cli import main
from repro.harness.compare import (
    GATED_METRICS,
    SCHEMA_VERSION,
    _percentile,
    compare_schemes,
    compare_to_baseline,
    run_compare,
    to_json,
)
from repro.protocols import ENGINES


@pytest.fixture(scope="module")
def results():
    return compare_schemes(seed=0, transactions=6)


EXPECTED_METRICS = {
    "transactions", "txns_per_s", "committed", "abort_rate",
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
            assert block["txns_per_s"] > 0.0, key


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


class TestPayload:
    def test_run_compare_emits_the_bench_artifact_shape(self):
        artifacts = run_compare(smoke=True, seed=0)
        assert sorted(artifacts) == ["BENCH_compare.json"]
        payload = artifacts["BENCH_compare.json"]
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["smoke"] is True
        assert payload["seed"] == 0
        # The baseline gate keys on result blocks named compare_*.
        assert all(k.startswith("compare_") for k in payload["results"])

    def test_to_json_is_stable(self):
        payload = {"b": 1, "a": {"y": 2, "x": 3}}
        assert to_json(payload) == to_json(payload)
        assert to_json(payload).endswith("\n")
        assert json.loads(to_json(payload)) == payload


class TestPercentile:
    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0]
        assert _percentile(samples, 0) == 1.0
        assert _percentile(samples, 50) == 3.0
        assert _percentile(samples, 100) == 5.0

    def test_single_sample(self):
        assert _percentile([2.5], 95) == 2.5


class TestBaselineGate:
    CURRENT = {
        "results": {
            "compare_O2PC": {"txns_per_s": 70.0, "lock_hold_p99": 9.9},
            "compare_PAXOS": {"txns_per_s": 12.0},
        }
    }

    def test_within_tolerance_passes(self):
        baseline = {
            "results": {
                "compare_O2PC": {"txns_per_s": 80.0},
                "compare_PAXOS": {"txns_per_s": 10.0},
            }
        }
        assert compare_to_baseline(self.CURRENT, baseline, 0.25) == []

    def test_regression_beyond_tolerance_reported(self):
        baseline = {"results": {"compare_O2PC": {"txns_per_s": 100.0}}}
        lines = compare_to_baseline(self.CURRENT, baseline, 0.25)
        assert len(lines) == 1
        assert "compare_O2PC.txns_per_s" in lines[0]

    def test_informational_metrics_never_gate(self):
        # The lock-hold tail moved 100x, but only GATED_METRICS gate.
        baseline = {"results": {"compare_O2PC": {"lock_hold_p99": 0.1}}}
        assert compare_to_baseline(self.CURRENT, baseline, 0.25) == []

    def test_new_block_ungated_until_baselined(self):
        assert compare_to_baseline(self.CURRENT, {"results": {}}, 0.25) == []

    def test_block_missing_from_the_run_is_a_regression(self):
        # Drop a scheme from the registry and the gate must go red.
        baseline = {
            "results": {
                "compare_O2PC": {"txns_per_s": 70.0},
                "compare_SHORT": {"txns_per_s": 50.0},
            }
        }
        lines = compare_to_baseline(self.CURRENT, baseline, 0.25)
        assert len(lines) == 1
        assert "compare_SHORT" in lines[0] and "missing" in lines[0]

    def test_gated_metric_missing_from_the_run_is_a_regression(self):
        current = {"results": {"compare_O2PC": {"lock_hold_p99": 9.9}}}
        baseline = {"results": {"compare_O2PC": {"txns_per_s": 70.0}}}
        lines = compare_to_baseline(current, baseline, 0.25)
        assert len(lines) == 1
        assert "compare_O2PC.txns_per_s" in lines[0]
        assert "missing" in lines[0]

    def test_gated_metrics_are_throughput_style(self):
        # The gate compares higher-is-better metrics only; wall times
        # would need the comparison inverted and are deliberately absent.
        for metric in GATED_METRICS:
            assert not metric.endswith("_s") or metric.endswith("_per_s")


def _stub_compare(txns_per_s):
    def run_compare(smoke=False, seed=0, vote_timeouts=()):
        block = {
            "txns_per_s": txns_per_s, "messages_per_txn": 14.0,
            "abort_rate": 0.1, "compensation_rate": 0.0,
            "lock_hold_p99": 5.0, "blocking_time": 400.0,
            "decided_in_outage": 0.0,
        }
        return {"BENCH_compare.json": {
            "schema": SCHEMA_VERSION, "smoke": smoke, "seed": seed,
            "results": {"compare_O2PC": block},
        }}
    return run_compare


class TestCompareCli:
    def _compare(self, tmp_path, *extra):
        return main([
            "compare", "--out", str(tmp_path / "out"),
            "--baseline", str(tmp_path / "baselines"), *extra,
        ])

    def test_update_baseline_then_pass(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.harness.compare.run_compare", _stub_compare(100.0),
        )
        assert self._compare(tmp_path, "--update-baseline") == 0
        written = json.loads(
            (tmp_path / "baselines" / "BENCH_compare.json").read_text()
        )
        assert written["results"]["compare_O2PC"]["txns_per_s"] == 100.0
        assert (tmp_path / "out" / "BENCH_compare.json").exists()
        assert self._compare(tmp_path) == 0
        assert "within 25% of baseline" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.harness.compare.run_compare", _stub_compare(100.0),
        )
        assert self._compare(tmp_path, "--update-baseline") == 0
        monkeypatch.setattr(
            "repro.harness.compare.run_compare", _stub_compare(50.0),
        )
        assert self._compare(tmp_path) == 1
        out = capsys.readouterr().out
        assert "PERF REGRESSION" in out
        assert "compare_O2PC.txns_per_s" in out

    def test_missing_baseline_file_is_an_error(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setattr(
            "repro.harness.compare.run_compare", _stub_compare(100.0),
        )
        (tmp_path / "baselines").mkdir()
        assert self._compare(tmp_path) == 2
        assert "no baseline" in capsys.readouterr().err
