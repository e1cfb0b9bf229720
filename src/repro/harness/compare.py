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
  transfer whose coordinator dies after the votes and stays down far
  beyond every timeout (one acceptor down too).  ``blocking_time`` is how
  long the participants sat on their YES votes before a decision was
  applied; ``decided_in_outage`` is 1.0 when the decision landed while
  the coordinator was still dead — Paxos Commit's termination protocol
  does, the 2PC family waits for recovery.

:func:`compare_schemes` returns one result block per scheme
(``compare_<SCHEME>``, or ``compare_<SCHEME>@vt<v>`` under a
``--vote-timeout`` sweep).  Every number in a block is simulation-derived,
so a seed fixes the whole table; wall-clock speed is ``bench/run.py``'s job.
"""

from __future__ import annotations

from dataclasses import replace

from repro.commit.base import CommitConfig, CommitScheme
from repro.harness.system import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.obs.metrics import percentile
from repro.protocols import ENGINES
from repro.txn.operations import WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

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
            commit = _COMPARE_COMMIT
            if vt is not None:
                key += f"@vt{vt:g}"
                commit = replace(commit, vote_timeout=vt)
            metrics = _contention_leg(scheme, seed, transactions, commit)
            metrics.update(_crash_drill(scheme, seed, commit))
            if vt is not None:
                metrics["vote_timeout"] = vt
            results[key] = metrics
    return results
