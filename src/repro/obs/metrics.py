"""Metrics: one exact :class:`MetricsReport`, built by one of two readers.

* :func:`report_from_logs` reads a simulated system's raw logs (outcomes,
  lock hold/wait logs, network counters, compensator stats).  It is what
  :meth:`System.metrics` returns, with observability on or off;
* :func:`report_from_events` reads a recorded event stream (a run's
  JSONL, or a live cluster's per-site streams through
  :func:`repro.rt.obs_sink.aggregate_cluster`).

Both collect plain lists and counters and hand them to one private
helper, so percentiles, means and extremes are computed the same exact
way.  Forced log writes are a storage counter with no event, so only the
log reader has them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.obs import events as ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.system import System


def mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 for the empty list."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile (nearest-rank); 0.0 for the empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1))))
    return ordered[rank]


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


def _report(
    latencies: list[float],
    committed: int,
    holds: list[float],
    waits: list[float],
    messages: dict[str, int],
    elapsed: float | None,
    **counts: int,
) -> MetricsReport:
    """Fill a report from one transaction latency per terminated
    transaction, the lock holds and waits, and the per-type message
    counts; ``counts`` are the remaining counters, as is."""
    report = MetricsReport(
        committed=committed,
        aborted=len(latencies) - committed,
        mean_latency=mean(latencies),
        p50_latency=percentile(latencies, 50),
        p99_latency=percentile(latencies, 99),
        mean_lock_hold=mean(holds),
        max_lock_hold=max(holds, default=0.0),
        mean_lock_wait=mean(waits),
        total_lock_wait=sum(waits),
        messages_total=sum(messages.values()),
        messages_by_type=dict(sorted(messages.items())),
        **counts,
    )
    if elapsed and elapsed > 0:
        report.throughput = committed / elapsed
    if latencies:
        report.messages_per_txn = report.messages_total / len(latencies)
    return report


def report_from_logs(
    system: "System", elapsed: float | None = None
) -> MetricsReport:
    """Aggregate a system's raw logs into a :class:`MetricsReport`.

    ``elapsed`` is the throughput denominator (default: the current
    simulation time).  Re-scans the lock logs on every call.
    """
    holds: list[float] = []
    waits: list[float] = []
    deadlocks = forced = 0
    for site in system.sites.values():
        holds.extend(h.duration for h in site.locks.hold_log)
        waits.extend(w for _, _, w in site.locks.wait_log)
        deadlocks += len(site.locks.detector.detected)
        forced += site.wal.forced_writes
    for acceptor in system.acceptors.values():
        forced += acceptor.wal.forced_writes
    stats = [p.compensator.stats for p in system.participants.values()]
    outcomes = system.outcomes
    return _report(
        [o.latency for o in outcomes],
        sum(1 for o in outcomes if o.committed),
        holds,
        waits,
        system.network.counts_by_type(),
        system.env.now if elapsed is None else elapsed,
        compensations=sum(s.completed for s in stats),
        compensation_retries=sum(s.retries for s in stats),
        deadlocks=deadlocks,
        rejections=system.marking.rejections,
        forced_log_writes=forced,
    )


def report_from_events(
    events: Iterable[ev.Event], elapsed: float | None = None
) -> MetricsReport:
    """Aggregate a recorded event stream into a :class:`MetricsReport`.

    ``elapsed`` defaults to the latest event's timestamp.  Over a
    simulated run's stream this equals :func:`report_from_logs` except
    for ``forced_log_writes`` (no event carries it; it stays 0) and the
    summation order of the sums and means.
    """
    latencies: list[float] = []
    holds: list[float] = []
    waits: list[float] = []
    messages: Counter[str] = Counter()
    committed = compensations = retries = deadlocks = rejections = 0
    last = 0.0
    for event in events:
        last = max(last, event.ts)
        if isinstance(event, ev.TxnTerminated):
            latencies.append(event.latency)
            committed += event.committed
        elif isinstance(event, ev.LockReleased):
            holds.append(event.held)
        elif isinstance(event, ev.LockGranted):
            waits.append(event.waited)
        elif isinstance(event, ev.MessageSent):
            messages[event.msg_type] += 1
        elif isinstance(event, ev.CompensationFinished):
            compensations += 1
            retries += event.retries
        elif isinstance(event, ev.DeadlockObserved):
            deadlocks += 1
        elif isinstance(event, ev.MarkingRejected):
            rejections += 1
    return _report(
        latencies,
        committed,
        holds,
        waits,
        messages,
        last if elapsed is None else elapsed,
        compensations=compensations,
        compensation_retries=retries,
        deadlocks=deadlocks,
        rejections=rejections,
    )
