"""Metrics: streaming aggregation from the bus, plus the log-scraping path.

Two ways to produce a :class:`MetricsReport`:

* :func:`report_from_logs` — the original post-hoc aggregation over a
  system's raw logs (lock hold/wait logs, network counters, outcomes).
  Exact, but re-scans every log on each call;
* :class:`StreamingMetrics` — a bus subscriber that folds the event stream
  into the same quantities incrementally: counters, windowed time series,
  and fixed-bucket :class:`Histogram`\\ s whose ``percentile`` is O(buckets)
  instead of the sort-based reference's O(n log n).

Histogram percentiles are approximate (one geometric bucket of relative
error, ~9% at the default resolution); counts, sums, means, and extremes
are exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import events as ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.system import System


def mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 for the empty list."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile (nearest-rank); 0.0 for the empty list.

    The sort-based reference implementation: exact, O(n log n).  Hot paths
    use :meth:`Histogram.percentile` instead.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1))))
    return ordered[rank]


class Histogram:
    """Fixed-bucket geometric histogram for non-negative durations.

    Buckets are geometric with ``buckets_per_decade`` per power of ten,
    spanning [``min_value``, ``max_value``); values at or below zero land
    in a dedicated zero bucket, values beyond the span clamp to the edge
    buckets.  ``add`` is O(1); ``percentile`` is O(buckets) and returns the
    geometric midpoint of the selected bucket — at the default resolution
    of 16 buckets per decade the relative error is bounded by
    ``10**(1/32) - 1`` ≈ 7.5%.  Count, sum, mean, min, and max are exact.
    """

    __slots__ = (
        "min_value", "ratio", "_log_ratio", "counts", "zero_count",
        "count", "total", "max", "min",
    )

    def __init__(
        self,
        min_value: float = 1e-3,
        max_value: float = 1e7,
        buckets_per_decade: int = 16,
    ) -> None:
        self.min_value = min_value
        self.ratio = 10.0 ** (1.0 / buckets_per_decade)
        self._log_ratio = math.log(self.ratio)
        n_buckets = int(
            math.ceil(math.log(max_value / min_value) / self._log_ratio)
        )
        self.counts = [0] * n_buckets
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.min = math.inf

    def add(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = int(math.log(value / self.min_value) / self._log_ratio)
        index = max(0, min(len(self.counts) - 1, index))
        self.counts[index] += 1

    @property
    def mean(self) -> float:
        """Exact mean of the observations; 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (nearest-rank over buckets)."""
        if not self.count:
            return 0.0
        rank = max(1, min(self.count, math.ceil(p / 100.0 * self.count)))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                lo = self.min_value * self.ratio ** index
                estimate = lo * math.sqrt(self.ratio)
                # Clamp to the exact extremes: the top and bottom buckets
                # would otherwise report midpoints outside the data.
                return max(min(estimate, self.max), self.min)
        return self.max  # pragma: no cover - rank <= count always lands

    def __len__(self) -> int:
        return self.count


class WindowedSeries:
    """A counter bucketed into fixed windows of simulation time.

    ``add(ts, amount)`` accumulates into window ``int(ts // window)``;
    :meth:`rows` returns ``(window_start, value)`` pairs in time order with
    empty windows skipped.  Timestamps arrive monotonically from the bus,
    so insertion order is time order.
    """

    __slots__ = ("window", "_buckets")

    def __init__(self, window: float = 10.0) -> None:
        self.window = window
        self._buckets: dict[int, float] = {}

    def add(self, ts: float, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into the window containing ``ts``."""
        index = int(ts // self.window)
        self._buckets[index] = self._buckets.get(index, 0.0) + amount

    def value_at(self, ts: float) -> float:
        """Accumulated value of the window containing ``ts``."""
        return self._buckets.get(int(ts // self.window), 0.0)

    def rows(self) -> list[tuple[float, float]]:
        """``(window_start, value)`` pairs, time-ordered, gaps skipped."""
        return [
            (index * self.window, value)
            for index, value in sorted(self._buckets.items())
        ]

    @property
    def total(self) -> float:
        """Sum across all windows."""
        return sum(self._buckets.values())


@dataclass
class MetricsReport:
    """Aggregated metrics of one run."""

    committed: int = 0
    aborted: int = 0
    mean_latency: float = 0.0
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    throughput: float = 0.0
    mean_lock_hold: float = 0.0
    max_lock_hold: float = 0.0
    mean_lock_wait: float = 0.0
    total_lock_wait: float = 0.0
    messages_total: int = 0
    messages_by_type: dict[str, int] = field(default_factory=dict)
    messages_per_txn: float = 0.0
    compensations: int = 0
    compensation_retries: int = 0
    deadlocks: int = 0
    rejections: int = 0
    forced_log_writes: int = 0

    @property
    def abort_rate(self) -> float:
        """Fraction of terminated transactions that aborted."""
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0


class StreamingMetrics:
    """Bus subscriber folding the event stream into metrics incrementally.

    Nothing is re-scanned: every event updates O(1) state.  ``report()``
    materializes a :class:`MetricsReport` from the current counters and
    histograms at any point of the run (the ``repro metrics --watch``
    command samples it between simulation windows).
    """

    def __init__(self, window: float = 10.0) -> None:
        self.committed = 0
        self.aborted = 0
        self.latency = Histogram()
        self.lock_hold = Histogram()
        self.lock_wait = Histogram()
        self.messages: Counter[str] = Counter()
        self.compensations = 0
        self.compensation_retries = 0
        self.deadlocks = 0
        self.rejections = 0
        #: windowed time series sampled by the watch view
        self.commit_series = WindowedSeries(window)
        self.abort_series = WindowedSeries(window)
        self.message_series = WindowedSeries(window)
        self._handlers = {
            ev.TxnTerminated: self._on_txn_end,
            ev.LockGranted: self._on_lock_grant,
            ev.LockReleased: self._on_lock_release,
            ev.MessageSent: self._on_message,
            ev.CompensationFinished: self._on_compensation,
            ev.DeadlockObserved: self._on_deadlock,
            ev.MarkingRejected: self._on_rejection,
        }

    # -- subscriber entry point ---------------------------------------------

    def __call__(self, event: ev.Event) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    # -- per-event folds ----------------------------------------------------

    def _on_txn_end(self, event: ev.TxnTerminated) -> None:
        if event.committed:
            self.committed += 1
            self.commit_series.add(event.ts)
        else:
            self.aborted += 1
            self.abort_series.add(event.ts)
        self.latency.add(event.latency)

    def _on_lock_grant(self, event: ev.LockGranted) -> None:
        self.lock_wait.add(event.waited)

    def _on_lock_release(self, event: ev.LockReleased) -> None:
        self.lock_hold.add(event.held)

    def _on_message(self, event: ev.MessageSent) -> None:
        self.messages[event.msg_type] += 1
        self.message_series.add(event.ts)

    def _on_compensation(self, event: ev.CompensationFinished) -> None:
        self.compensations += 1
        self.compensation_retries += event.retries

    def _on_deadlock(self, event: ev.DeadlockObserved) -> None:
        self.deadlocks += 1

    def _on_rejection(self, event: ev.MarkingRejected) -> None:
        self.rejections += 1

    # -- materialization ----------------------------------------------------

    def report(self, elapsed: float | None = None) -> MetricsReport:
        """Snapshot the current counters into a :class:`MetricsReport`."""
        report = MetricsReport()
        report.committed = self.committed
        report.aborted = self.aborted
        report.mean_latency = self.latency.mean
        report.p50_latency = self.latency.percentile(50)
        report.p99_latency = self.latency.percentile(99)
        if elapsed and elapsed > 0:
            report.throughput = self.committed / elapsed
        report.mean_lock_hold = self.lock_hold.mean
        report.max_lock_hold = self.lock_hold.max
        report.mean_lock_wait = self.lock_wait.mean
        report.total_lock_wait = self.lock_wait.total
        report.messages_total = sum(self.messages.values())
        report.messages_by_type = {
            name: count for name, count in sorted(self.messages.items())
        }
        terminated = self.committed + self.aborted
        if terminated:
            report.messages_per_txn = report.messages_total / terminated
        report.compensations = self.compensations
        report.compensation_retries = self.compensation_retries
        report.deadlocks = self.deadlocks
        report.rejections = self.rejections
        return report


def report_from_logs(
    system: "System", elapsed: float | None = None
) -> MetricsReport:
    """Aggregate a system's raw logs into a :class:`MetricsReport`.

    The post-hoc path: exact (sort-based percentiles), but re-scans the
    lock logs on every call.  :meth:`System.metrics` uses it when the
    event bus is disabled.
    """
    report = MetricsReport()
    outcomes = system.outcomes
    report.committed = sum(1 for o in outcomes if o.committed)
    report.aborted = sum(1 for o in outcomes if not o.committed)
    latencies = [o.latency for o in outcomes]
    report.mean_latency = mean(latencies)
    report.p50_latency = percentile(latencies, 50)
    report.p99_latency = percentile(latencies, 99)
    elapsed = elapsed if elapsed is not None else system.env.now
    if elapsed > 0:
        report.throughput = report.committed / elapsed

    holds: list[float] = []
    waits: list[float] = []
    for site in system.sites.values():
        holds.extend(h.duration for h in site.locks.hold_log)
        waits.extend(w for _, _, w in site.locks.wait_log)
        report.deadlocks += len(site.locks.detector.detected)
        report.forced_log_writes += site.wal.forced_writes
    for acceptor in system.acceptors.values():
        report.forced_log_writes += acceptor.wal.forced_writes
    report.mean_lock_hold = mean(holds)
    report.max_lock_hold = max(holds) if holds else 0.0
    report.mean_lock_wait = mean(waits)
    report.total_lock_wait = sum(waits)

    report.messages_total = system.network.total_sent()
    report.messages_by_type = system.network.counts_by_type()
    if outcomes:
        report.messages_per_txn = report.messages_total / len(outcomes)

    for participant in system.participants.values():
        report.compensations += participant.compensator.stats.completed
        report.compensation_retries += participant.compensator.stats.retries
    report.rejections = system.marking.rejections
    return report
