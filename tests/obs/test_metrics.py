"""Unit tests for histograms, windowed series, and streaming metrics."""

import pytest

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.obs.metrics import (
    Histogram,
    WindowedSeries,
    mean,
    percentile,
    report_from_logs,
)
from repro.sim import Rng
from repro.txn.operations import WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec
from tests.obs.test_events import observed_workload


class TestSortReference:
    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0


class TestHistogram:
    def test_exact_statistics(self):
        h = Histogram()
        for v in (0.0, 1.0, 2.0, 7.0):
            h.add(v)
        assert h.count == len(h) == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert h.max == 7.0
        assert h.min == 0.0
        assert h.zero_count == 1

    def test_empty(self):
        h = Histogram()
        assert len(h) == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_single_value_clamps_to_exact(self):
        h = Histogram()
        h.add(5.0)
        assert h.percentile(1) == 5.0
        assert h.percentile(99) == 5.0

    def test_mostly_zero_values(self):
        h = Histogram()
        for _ in range(9):
            h.add(0.0)
        h.add(100.0)
        assert h.percentile(50) == 0.0
        assert h.percentile(99) == pytest.approx(100.0, rel=0.12)

    def test_percentiles_track_sort_reference(self):
        rng = Rng(42)
        values = [rng.exponential(5.0) for _ in range(2000)]
        h = Histogram()
        for v in values:
            h.add(v)
        for p in (10, 50, 90, 99):
            exact = percentile(values, p)
            approx = h.percentile(p)
            # One geometric bucket of relative error (~7.5% at 16
            # buckets/decade) plus the rank-rounding difference.
            assert approx == pytest.approx(exact, rel=0.12)

    def test_out_of_span_values_clamp(self):
        h = Histogram(min_value=1.0, max_value=10.0)
        h.add(0.5)    # below span -> bottom bucket
        h.add(100.0)  # beyond span -> top bucket
        assert h.count == 2
        assert h.percentile(1) >= h.min
        assert h.percentile(99) <= h.max


class TestWindowedSeries:
    def test_accumulation_and_rows(self):
        s = WindowedSeries(window=10.0)
        s.add(1.0)
        s.add(9.9)
        s.add(35.0, amount=2.0)
        assert s.rows() == [(0.0, 2.0), (30.0, 2.0)]  # gap at 10/20 skipped
        assert s.total == 4.0

    def test_value_at(self):
        s = WindowedSeries(window=5.0)
        s.add(2.0)
        assert s.value_at(4.9) == 1.0
        assert s.value_at(5.0) == 0.0


class TestStreamingParity:
    """The streaming aggregator must agree with the post-hoc log scan."""

    @pytest.fixture(scope="class")
    def reports(self):
        system, elapsed = observed_workload(seed=7, n=15)
        return system.metrics(elapsed), report_from_logs(system, elapsed)

    def test_run_is_nontrivial(self, reports):
        streamed, exact = reports
        assert exact.committed > 0
        assert exact.aborted > 0
        assert exact.compensations > 0

    def test_counters_exact(self, reports):
        streamed, exact = reports
        for name in (
            "committed", "aborted", "messages_total", "messages_by_type",
            "compensations", "compensation_retries", "deadlocks",
            "rejections", "forced_log_writes",
        ):
            assert getattr(streamed, name) == getattr(exact, name), name

    def test_both_paths_count_the_acceptors_forced_writes(self):
        system = System(SystemConfig(
            scheme=CommitScheme.PAXOS, n_sites=2, observability=True,
        ))
        assert system.run_transaction(GlobalTxnSpec("T1", [
            SubtxnSpec("S1", [WriteOp("k0", 1)]),
            SubtxnSpec("S2", [WriteOp("k0", 1)]),
        ])).committed
        sites = sum(site.wal.forced_writes for site in system.sites.values())
        acceptors = sum(
            acceptor.wal.forced_writes
            for acceptor in system.acceptors.values()
        )
        assert acceptors > 0
        assert system.metrics().forced_log_writes == sites + acceptors
        assert report_from_logs(system).forced_log_writes == sites + acceptors

    def test_sums_and_means_exact(self, reports):
        streamed, exact = reports
        for name in (
            "mean_latency", "mean_lock_hold", "max_lock_hold",
            "mean_lock_wait", "total_lock_wait", "throughput",
            "messages_per_txn",
        ):
            assert getattr(streamed, name) == pytest.approx(
                getattr(exact, name), rel=1e-9
            ), name
        assert streamed.abort_rate == pytest.approx(exact.abort_rate)

    def test_percentiles_within_bucket_error(self, reports):
        streamed, exact = reports
        assert streamed.p50_latency == pytest.approx(
            exact.p50_latency, rel=0.12
        )
        assert streamed.p99_latency == pytest.approx(
            exact.p99_latency, rel=0.12
        )

    def test_streaming_is_the_enabled_path(self):
        system, elapsed = observed_workload(seed=3, n=5)
        # Disabling the bus must flip metrics() back to the exact scan.
        streamed = system.metrics(elapsed)
        system.obs.disable()
        exact = system.metrics(elapsed)
        assert streamed.committed == exact.committed
        latencies = [o.latency for o in system.outcomes]
        assert exact.p50_latency == percentile(latencies, 50)
