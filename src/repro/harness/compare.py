"""Head-to-head commit-scheme comparison behind ``repro compare``.

Every registered :class:`~repro.commit.base.CommitScheme` runs the same
two legs on the shared substrate (identical sites, workload generator,
and seeds — the engine is the *only* independent variable):

* **contention** — a seeded multi-site workload under ``protocol="none"``,
  measuring messages per transaction, abort and compensation rates, and
  the lock-hold tail (p50/p99 of every grant→release interval).  This is
  where the schemes' lock-release trades show up: O2PC and Short-Commit
  release at the vote, 2PC and Paxos Commit hold through the decision.
* **crash drill** — the checker's ``crashcoord`` shape: a two-site
  transfer whose coordinating site ``S1`` dies after the votes, taking the
  coordinator with it, and stays down far beyond every timeout (one
  acceptor down too).  ``blocking_time`` is how long the surviving
  participant ``S2`` sat on its YES vote before a decision was applied;
  ``decided_in_outage`` is 1.0 when that decision landed while ``S1`` was
  still dead — Paxos Commit's termination protocol does, the 2PC family
  waits for recovery (and its presumed abort).

:func:`compare_schemes` returns one result block per scheme
(``compare_<SCHEME>``, or ``compare_<SCHEME>@vt<v>`` under a
``--vote-timeout`` sweep).  Every number in a block is simulation-derived,
so a seed fixes the whole table; wall-clock speed is ``bench/run.py``'s job.
"""

from __future__ import annotations

from dataclasses import replace

from repro.check.workloads import (
    CHECK_COMMIT,
    CRASHCOORD_AT,
    CRASHCOORD_OUTAGE,
    get_scenario,
)
from repro.commit.base import CommitConfig, CommitScheme
from repro.harness.system import System, SystemConfig
from repro.obs.metrics import percentile
from repro.protocols import ENGINES
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def _contention_leg(
    scheme: CommitScheme, seed: int, transactions: int, commit: CommitConfig,
) -> dict[str, float]:
    system = System(SystemConfig(
        n_sites=3, scheme=scheme, protocol="none", keys_per_site=8,
        seed=seed, commit=commit,
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=transactions, abort_probability=0.15,
        read_fraction=0.4, arrival_mean=2.0, zipf_theta=0.7,
    ), seed=seed)
    report = system.metrics(gen.run())
    holds = [
        h.duration
        for site in system.sites.values()
        for h in site.locks.hold_log
    ]
    terminated = report.committed + report.aborted
    return {
        "transactions": float(transactions),
        "committed": float(report.committed),
        "abort_rate": report.abort_rate,
        "compensation_rate": (
            report.compensations / terminated if terminated else 0.0
        ),
        "messages_per_txn": report.messages_per_txn,
        "lock_hold_p50": percentile(holds, 50),
        "lock_hold_p99": percentile(holds, 99),
    }


def _crash_drill(
    scheme: CommitScheme, seed: int, commit: CommitConfig,
) -> dict[str, float]:
    system = System(SystemConfig(
        n_sites=2, scheme=scheme, protocol="none", seed=seed, commit=commit,
    ))
    get_scenario("crashcoord").build(system)
    system.env.run()
    decided_at = [
        state.decided_at
        for state in system.participants["S2"].subtxns.values()
        if state.decided_at is not None
    ]
    last = max(decided_at) if decided_at else float("inf")
    return {
        "blocking_time": (
            max(0.0, last - CRASHCOORD_AT)
            if decided_at else CRASHCOORD_OUTAGE
        ),
        "decided_in_outage": (
            1.0 if last < CRASHCOORD_AT + CRASHCOORD_OUTAGE else 0.0
        ),
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
            commit = CHECK_COMMIT
            if vt is not None:
                key += f"@vt{vt:g}"
                commit = replace(commit, vote_timeout=vt)
            metrics = _contention_leg(scheme, seed, transactions, commit)
            metrics.update(_crash_drill(scheme, seed, commit))
            if vt is not None:
                metrics["vote_timeout"] = vt
            results[key] = metrics
    return results
