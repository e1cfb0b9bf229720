"""Head-to-head commit-scheme comparison behind ``repro compare``.

Every registered :class:`~repro.commit.base.CommitScheme` runs the same
two legs on the shared substrate (identical sites, workload generator,
and seeds — the engine is the *only* independent variable):

* **contention** — a seeded multi-site workload under ``protocol="none"``,
  measuring wall-clock throughput, messages per transaction, abort and
  compensation rates, and the lock-hold tail (p50/p99 of every
  grant→release interval).  This is where the schemes' lock-release
  trades show up: O2PC and Short-Commit release at the vote, 2PC and
  Paxos Commit hold through the decision.
* **crash drill** — the checker's ``crashcoord`` shape: a two-site
  transfer whose coordinator dies after the votes and stays down far
  beyond every timeout (one acceptor down too).  ``blocking_time`` is how
  long the participants sat on their YES votes before a decision was
  applied; ``decided_in_outage`` is 1.0 when the decision landed while
  the coordinator was still dead — Paxos Commit's termination protocol
  does, the 2PC family waits for recovery.

``run_compare`` returns the ``BENCH_compare.json`` payload: one result
block per scheme (``compare_<SCHEME>``, or ``compare_<SCHEME>@vt<v>`` under
a ``--vote-timeout`` sweep).  ``compare_to_baseline`` gates each block's
``txns_per_s`` against the committed baseline; everything else in a block
(rates, messages per transaction, lock-hold percentiles, blocking time) is
informational.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from repro.commit.base import CommitConfig, CommitScheme
from repro.harness.system import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.protocols import ENGINES
from repro.txn.operations import WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

#: metrics compared against the baseline (higher is better)
GATED_METRICS = ("txns_per_s",)

SCHEMA_VERSION = 1

#: commit timeouts compressed exactly like the checker's (a Paxos
#: watchdog waiting the library-default 60 units would dominate the run)
_COMPARE_COMMIT = CommitConfig(
    spawn_timeout=30.0,
    spawn_retry_delay=2.0,
    max_spawn_retries=10,
    vote_timeout=30.0,
    ack_timeout=15.0,
    decision_retries=5,
    decision_log_delay=0.5,
    sequential_spawn=True,
    paxos_acceptors=3,
    paxos_decision_timeout=10.0,
    short_dependency_timeout=25.0,
)

#: the crash drill's outage window (same shape as the checker scenario)
_DRILL_CRASH_AT = 6.2
_DRILL_OUTAGE = 400.0


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (small-sample friendly)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _contention_leg(
    scheme: CommitScheme,
    seed: int,
    transactions: int,
    vote_timeout: float | None,
) -> dict[str, float]:
    system = System(SystemConfig(
        n_sites=3, scheme=scheme, protocol="none", keys_per_site=8,
        seed=seed, commit=_COMPARE_COMMIT, vote_timeout=vote_timeout,
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=transactions, abort_probability=0.15,
        read_fraction=0.4, arrival_mean=2.0, zipf_theta=0.7,
    ), seed=seed)
    wall, elapsed = _timed(gen.run)
    report = system.metrics(elapsed)
    holds = sorted(
        h.duration
        for site in system.sites.values()
        for h in site.locks.hold_log
    )
    terminated = report.committed + report.aborted
    return {
        "transactions": float(transactions),
        "txns_per_s": transactions / wall if wall else 0.0,
        "committed": float(report.committed),
        "abort_rate": report.abort_rate,
        "compensation_rate": (
            report.compensations / terminated if terminated else 0.0
        ),
        "messages_per_txn": report.messages_per_txn,
        "lock_hold_p50": _percentile(holds, 50) if holds else 0.0,
        "lock_hold_p99": _percentile(holds, 99) if holds else 0.0,
    }


def _crash_drill(
    scheme: CommitScheme, seed: int, vote_timeout: float | None,
) -> dict[str, float]:
    system = System(SystemConfig(
        n_sites=2, scheme=scheme, protocol="none", seed=seed,
        commit=_COMPARE_COMMIT, vote_timeout=vote_timeout,
    ))
    system.failures.schedule(CrashPlan("acc.3", at=0.5, duration=_DRILL_OUTAGE))
    system.failures.schedule(CrashPlan(
        "coord.T1", at=_DRILL_CRASH_AT, duration=_DRILL_OUTAGE,
    ))
    system.submit(GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 1)]),
        SubtxnSpec("S2", [WriteOp("k1", 1)]),
    ]))
    system.env.run()
    decided_at = [
        state.decided_at
        for participant in system.participants.values()
        for state in participant.subtxns.values()
        if state.decided_at is not None
    ]
    last = max(decided_at) if decided_at else float("inf")
    outage_end = _DRILL_CRASH_AT + _DRILL_OUTAGE
    return {
        "blocking_time": (
            max(0.0, last - _DRILL_CRASH_AT)
            if decided_at else _DRILL_OUTAGE
        ),
        "decided_in_outage": 1.0 if last < outage_end else 0.0,
    }


def compare_schemes(
    seed: int = 0,
    transactions: int = 40,
    vote_timeouts: tuple[float, ...] = (),
) -> dict[str, dict[str, float]]:
    """Both legs for every registered scheme; one result block each.

    An empty ``vote_timeouts`` runs each scheme once at the library
    default; otherwise every scheme runs once per timeout, with the block
    key carrying the swept value (``compare_PAXOS@vt5``).
    """
    results: dict[str, dict[str, float]] = {}
    sweeps: tuple[float | None, ...] = tuple(vote_timeouts) or (None,)
    for scheme in sorted(ENGINES, key=lambda s: s.name):
        for vt in sweeps:
            key = f"compare_{scheme.name}"
            if vt is not None:
                key += f"@vt{vt:g}"
            metrics = _contention_leg(scheme, seed, transactions, vt)
            metrics.update(_crash_drill(scheme, seed, vt))
            if vt is not None:
                metrics["vote_timeout"] = vt
            results[key] = metrics
    return results


def run_compare(
    smoke: bool = False,
    seed: int = 0,
    vote_timeouts: tuple[float, ...] = (),
) -> dict[str, dict[str, Any]]:
    """The ``BENCH_compare.json`` payload (``repro compare``)."""
    transactions = 20 if smoke else 40
    results = compare_schemes(
        seed=seed, transactions=transactions, vote_timeouts=vote_timeouts,
    )
    return {"BENCH_compare.json": {
        "schema": SCHEMA_VERSION, "smoke": smoke, "seed": seed,
        "results": results,
    }}


def to_json(payload: dict[str, Any]) -> str:
    """Stable JSON encoding for artifacts and baselines."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def compare_to_baseline(
    current: dict[str, Any], baseline: dict[str, Any], tolerance: float
) -> list[str]:
    """Regression lines for gated metrics; empty means within tolerance.

    The baseline is the contract: a result block or gated metric it holds
    that the current run lacks is a regression (a scheme dropped from the
    registry must not turn the gate green).  Blocks and metrics new in
    the run stay ungated until a baseline records them.
    """
    regressions: list[str] = []
    results = current.get("results", {})
    for name, base_metrics in baseline.get("results", {}).items():
        metrics = results.get(name)
        if metrics is None:
            regressions.append(f"{name}: in the baseline, missing from this run")
            continue
        for metric in GATED_METRICS:
            if metric not in base_metrics:
                continue
            then = base_metrics[metric]
            if metric not in metrics:
                regressions.append(
                    f"{name}.{metric}: baseline {then:.1f}, missing from "
                    "this run"
                )
                continue
            now, floor = metrics[metric], then * (1.0 - tolerance)
            if now < floor:
                regressions.append(
                    f"{name}.{metric}: {now:.1f} < {floor:.1f} "
                    f"(baseline {then:.1f}, tolerance {tolerance:.0%})"
                )
    return regressions
