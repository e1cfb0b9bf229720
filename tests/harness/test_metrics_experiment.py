"""Unit tests for metric aggregation and table formatting."""

from repro.harness import (
    ExperimentResult,
    System,
    SystemConfig,
    format_table,
)
from repro.obs.metrics import mean, percentile
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec, VotePolicy


class TestStatHelpers:
    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([2.0, 4.0]) == 3.0

    def test_percentile(self):
        assert percentile([], 99) == 0.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0
        assert 49.0 <= percentile(values, 50) <= 51.0


class TestCollectMetrics:
    def run_system(self, force_no=False):
        system = System(SystemConfig())
        spec = GlobalTxnSpec(txn_id="T1", subtxns=[
            SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 1})]),
            SubtxnSpec(
                "S2", [SemanticOp("deposit", "k0", {"amount": 1})],
                vote=VotePolicy.FORCE_NO if force_no else VotePolicy.AUTO,
            ),
        ])
        system.run_transaction(spec)
        system.env.run()
        return system

    def test_commit_accounting(self):
        report = self.run_system().metrics()
        assert (report.committed, report.aborted) == (1, 0)
        assert report.abort_rate == 0.0
        assert report.mean_latency > 0
        # 2 sites x 3 round trips (SUBTXN, VOTE, DECISION) = 12 messages
        assert report.messages_total == 12

    def test_abort_accounting(self):
        report = self.run_system(force_no=True).metrics()
        assert (report.committed, report.aborted) == (0, 1)
        assert report.abort_rate == 1.0
        assert report.compensations == 1

    def test_lock_metrics_populated(self):
        report = self.run_system().metrics()
        assert report.mean_lock_hold > 0
        assert report.max_lock_hold >= report.mean_lock_hold
        assert report.forced_log_writes > 0

    def test_explicit_elapsed_drives_throughput(self):
        system = self.run_system()
        report = system.metrics(elapsed=10.0)
        assert report.throughput == 0.1


class TestSweepAndTable:
    def test_format_table_alignment_and_precision(self):
        rows = [
            ExperimentResult(params={"p": 0.1},
                             measures={"value": 1.23456, "flag": True}),
            ExperimentResult(params={"p": 10.0},
                             measures={"value": 7.0, "flag": False}),
        ]
        text = format_table(rows, title="demo", precision=2)
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "p" in lines[1] and "value" in lines[1]
        assert "1.23" in text and "7.00" in text
        assert "True" in text and "False" in text
        # all rows share the same width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")
