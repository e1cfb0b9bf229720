"""The one exact metrics report and its two readers.

``System.metrics()`` reads the system's logs (``report_from_logs``),
with observability on or off; ``report_from_events`` reads a recorded
event stream (a run's JSONL, a live cluster's site streams).  The parity
tests run every commit scheme with observability on and off and read the
observed run's JSONL back: the three reports must agree, counts,
percentiles and extremes exactly, sums up to summation order.
"""

import io

import pytest

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.obs.export import read_jsonl
from repro.obs.metrics import (
    mean,
    percentile,
    report_from_events,
    report_from_logs,
)
from repro.txn.operations import WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec
from tests.obs.test_events import observed_workload

#: fields both readers must fill identically
EXACT = (
    "committed", "aborted", "throughput", "messages_total",
    "messages_by_type", "messages_per_txn", "compensations",
    "compensation_retries", "deadlocks", "rejections",
)
#: order statistics: taken from the same samples, so equal too
ORDER = ("p50_latency", "p99_latency", "max_lock_hold")
#: sums, which the readers may add up in different orders
SUMS = ("mean_latency", "mean_lock_hold", "mean_lock_wait", "total_lock_wait")


def assert_parity(fields, expected, got, where):
    for name in fields:
        want, have = getattr(expected, name), getattr(got, name)
        if name in SUMS:
            assert have == pytest.approx(want, rel=0, abs=1e-12), (
                f"metrics parity: {where} {name} {have!r} != {want!r}"
            )
        else:
            assert have == want, (
                f"metrics parity: {where} {name} {have!r} != {want!r}"
            )


class TestSortReference:
    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0


class TestStreamingParity:
    """The event-stream reader agrees with the log reader, per scheme."""

    @pytest.fixture(scope="class")
    def reports(self):
        """Per scheme: the observed run's report, the unobserved run's,
        and the observed run's JSONL read back by the event reader."""
        runs = {}
        for scheme in CommitScheme:
            system, elapsed = observed_workload(seed=7, n=15, scheme=scheme)
            plain, plain_elapsed = observed_workload(
                seed=7, n=15, scheme=scheme, observability=False,
            )
            assert plain_elapsed == elapsed, (
                f"metrics parity: {scheme.name} observing moved the run"
            )
            events = read_jsonl(io.StringIO(system.obs.jsonl()))
            runs[scheme.name] = (
                system.metrics(elapsed),
                plain.metrics(elapsed),
                report_from_events(events, elapsed),
            )
        return runs

    def check(self, reports, fields):
        for scheme, (observed, plain, streamed) in reports.items():
            assert_parity(fields, observed, plain, f"{scheme} obs on/off")
            assert_parity(fields, observed, streamed, f"{scheme} events")

    def test_run_is_nontrivial(self, reports):
        exact, _, _ = reports["O2PC"]
        assert exact.committed > 0
        assert exact.aborted > 0
        assert exact.compensations > 0
        for scheme, (exact, _, _) in reports.items():
            assert exact.messages_total > 0, scheme
            assert exact.max_lock_hold > 0, scheme

    def test_counters_exact(self, reports):
        self.check(reports, EXACT)

    def test_percentiles_exact(self, reports):
        self.check(reports, ORDER)

    def test_sums_and_means_exact(self, reports):
        self.check(reports, SUMS)

    def test_observability_does_not_change_the_report(self, reports):
        for scheme, (observed, plain, _) in reports.items():
            assert observed == plain, f"metrics parity: {scheme}"

    def test_events_default_elapsed_is_the_last_event(self):
        system, _ = observed_workload(seed=3, n=5)
        events = system.events()
        report = report_from_events(events)
        assert report.throughput == report.committed / events[-1].ts

    def test_the_report_is_the_exact_log_scan(self):
        system, elapsed = observed_workload(seed=3, n=5)
        assert system.metrics(elapsed) == report_from_logs(system, elapsed)
        latencies = [o.latency for o in system.outcomes]
        assert system.metrics().p50_latency == percentile(latencies, 50)
        assert system.metrics().p99_latency == percentile(latencies, 99)

    def test_both_paths_count_the_acceptors_forced_writes(self):
        for observability in (True, False):
            system = System(SystemConfig(
                scheme=CommitScheme.PAXOS, n_sites=2,
                observability=observability,
            ))
            assert system.run_transaction(GlobalTxnSpec("T1", [
                SubtxnSpec("S1", [WriteOp("k0", 1)]),
                SubtxnSpec("S2", [WriteOp("k0", 1)]),
            ])).committed
            sites = sum(
                site.wal.forced_writes for site in system.sites.values()
            )
            acceptors = sum(
                acceptor.wal.forced_writes
                for acceptor in system.acceptors.values()
            )
            assert acceptors > 0
            assert system.metrics().forced_log_writes == sites + acceptors
