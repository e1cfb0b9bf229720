"""Oracle layer: judge one explored history against the paper's guarantees.

Each oracle replays the finished run through an existing theory/storage
component and reports :class:`Violation`\\ s.  The mapping to the paper:

* ``serializability`` — Theorem 1: the global serialization graph must have
  no cycle through regular transactions (checked per site as well: a local
  cycle would mean strict 2PL itself broke).  By default the *effective*
  criterion is used (regular = committed global transactions); ``strict``
  switches to the paper's literal criterion.
* ``atomicity`` — Theorem 2's read-from discipline: no committed transaction
  may have read a forward update of an aborted transaction at one site and
  miss it at another; compensations must cover every forward write; an
  aborted transaction must not leave a site exposed (LOCAL_COMMIT with no
  terminal record) or committed.
* ``marking`` — Section 6's bookkeeping: when the run terminates, the
  marking directory must have no in-flight transactions and no unresolved
  locally-committed marks; with the quiescence clearing rule on, no site
  may end the run undone with respect to anything.
* ``recovery`` — Section 5: restarting every site from its (cloned) log must
  reproduce the live store, and under O2PC must report *no in-doubt
  transactions* — the non-blocking property that motivates the protocol.
* ``nonblocking`` — when a coordinating site (a transaction's first site,
  which hosts its coordinator) stays down well past the decision timeout,
  a subtransaction elsewhere that never voted must not keep its locks past
  a bounded budget of the crash (the paper's §1 autonomy: the site aborts
  what a lost coordinator left unvoted).  Under PAXOS, every participant
  elsewhere that voted YES must also reach a decision within that budget
  (Paxos Commit's defining guarantee: the termination protocol needs only
  an acceptor majority); 2PC-family schemes legitimately block there.
* ``liveness`` — every submitted transaction terminated before the event
  queue drained (checked by the explorer, which owns the process handles).

The serializability and atomicity oracles judge what the system's
forgetting judge retains (:attr:`System.judge`): it pins every violation
before it forgets anything, so they return the full history's verdicts
(docs/THEORY.md §11).

Oracles run on a *cloned* WAL and a fresh store where replay is involved,
because :meth:`~repro.storage.recovery.RecoveryManager.restart` appends
ABORT records for losers — the oracle must not mutate the history it judges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.commit.base import CommitScheme
from repro.errors import ReproError
from repro.harness.system import System
from repro.sg.atomicity import (
    check_atomicity_of_compensation,
    compensation_writes_cover,
)
from repro.sg.cycles import find_local_cycle, find_regular_cycle
from repro.sg.graph import TxnKind
from repro.storage.kvstore import KVStore
from repro.storage.recovery import RecoveryManager
from repro.storage.wal import RecordType


@dataclass(frozen=True)
class Violation:
    """One oracle verdict: which guarantee broke, and how."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


def run_oracles(system: System, strict: bool = False) -> list[Violation]:
    """Run every oracle over a finished run; returns all violations found."""
    violations: list[Violation] = []
    checks = (
        ("serializability", lambda: _check_serializability(system, strict)),
        ("atomicity", lambda: _check_atomicity(system)),
        ("marking", lambda: _check_marking(system)),
        ("recovery", lambda: _check_recovery(system)),
        ("nonblocking", lambda: _check_nonblocking(system)),
    )
    for name, check in checks:
        try:
            violations.extend(check())
        except ReproError as exc:
            # An oracle that cannot even evaluate (malformed history, bad
            # log) is itself evidence of a broken run.
            violations.append(
                Violation(name, f"{type(exc).__name__}: {exc}")
            )
    return violations


# -- serializability (Theorems 1 & 3) ------------------------------------------


def _check_serializability(system: System, strict: bool) -> list[Violation]:
    violations: list[Violation] = []
    gsg = system.global_sg()
    local = find_local_cycle(gsg)
    if local is not None:
        site_id, cycle = local
        violations.append(Violation(
            "serializability",
            f"local SG cycle at {site_id}: {' -> '.join(cycle)} "
            "(strict 2PL violated)",
        ))
    if strict:
        regular = gsg.nodes_of_kind(TxnKind.GLOBAL)
    else:
        regular = system.effective_regular_nodes(gsg)
    cycle = find_regular_cycle(gsg, regular)
    if cycle is not None:
        violations.append(Violation(
            "serializability",
            f"regular cycle in global SG: {' -> '.join(cycle)}",
        ))
    return violations


# -- atomicity of compensation (Theorem 2) -------------------------------------


def _check_atomicity(system: System) -> list[Violation]:
    violations: list[Violation] = []
    history = system.global_history()
    report = check_atomicity_of_compensation(history)
    for reader, forward_txn in report.violations:
        violations.append(Violation(
            "atomicity",
            f"{reader} observed {forward_txn} inconsistently across sites "
            "(read-from discipline of Theorem 2 violated)",
        ))
    for outcome in system.outcomes:
        if outcome.committed:
            continue
        if outcome.compensated_sites and not compensation_writes_cover(
            history, outcome.txn_id
        ):
            violations.append(Violation(
                "atomicity",
                f"compensation of {outcome.txn_id} does not cover its "
                "forward writes",
            ))
    violations.extend(_check_exposure(system))
    return violations


def _check_exposure(system: System) -> list[Violation]:
    """No transaction may end the run with unrevoked exposed updates."""
    violations: list[Violation] = []
    for outcome in system.outcomes:
        spec = system.specs.get(outcome.txn_id)
        if spec is None:
            violations.append(Violation(
                "atomicity", f"{outcome.txn_id} has an outcome but no spec",
            ))
            continue
        for site_id in spec.site_ids:
            status = system.sites[site_id].wal.status_of(outcome.txn_id)
            if outcome.committed:
                if status not in (None, RecordType.COMMIT):
                    violations.append(Violation(
                        "atomicity",
                        f"{outcome.txn_id} committed globally but its log "
                        f"status at {site_id} is {status.value}",
                    ))
            elif status is RecordType.LOCAL_COMMIT:
                violations.append(Violation(
                    "atomicity",
                    f"{outcome.txn_id} aborted globally but is still "
                    f"locally committed at {site_id} (exposed updates "
                    "never revoked)",
                ))
            elif status is RecordType.COMMIT:
                violations.append(Violation("atomicity", (
                    f"{outcome.txn_id} aborted globally but committed at {site_id}"
                )))
    return violations


# -- marking bookkeeping (Section 6) ---------------------------------------------


def _check_marking(system: System) -> list[Violation]:
    violations: list[Violation] = []
    directory = system.directory
    if directory.active:
        violations.append(Violation(
            "marking",
            "transactions still registered as in flight after the run "
            f"terminated: {sorted(directory.active)}",
        ))
    for site_id in sorted(directory.machines):
        lc_marks = directory.machines[site_id].locally_committed_set()
        if lc_marks:
            violations.append(Violation(
                "marking",
                f"{site_id} ended the run locally committed with respect "
                f"to {sorted(lc_marks)} (decision never resolved)",
            ))
    if directory.quiescence_enabled and not directory.active:
        # With nothing in flight the quiescence rule must have drained
        # every mark.  (Without it UDUM1 is the only clearing rule, and a
        # mark may legitimately wait for witnesses forever.)
        for site_id in sorted(directory.machines):
            undone = directory.machines[site_id].undone_set()
            if undone:
                violations.append(Violation(
                    "marking",
                    f"{site_id} ended a quiesced run undone with respect "
                    f"to {sorted(undone)} (a mark no rule can clear)",
                ))
    return violations


# -- crash-restart reports (Section 5) --------------------------------------------


def _check_recovery(system: System) -> list[Violation]:
    violations: list[Violation] = []
    o2pc = system.config.scheme is CommitScheme.O2PC
    for site_id in sorted(system.sites):
        site = system.sites[site_id]
        # Clone the log: restart() appends ABORT records for losers, and
        # the oracle must not mutate the history it is judging.
        replayed = KVStore(site_id=f"{site_id}.replay")
        report = RecoveryManager(replayed, site.wal.clone()).restart()
        if o2pc and report.in_doubt:
            violations.append(Violation(
                "recovery",
                f"restart at {site_id} reports in-doubt transactions "
                f"{sorted(report.in_doubt)} under O2PC (a YES vote must "
                "locally commit, never block)",
            ))
        for key, value in replayed.items():
            if site.marks_key is not None and key == site.marks_key:
                continue
            live = site.store.get_or(key, _MISSING)
            if live is not _MISSING and live != value:
                violations.append(Violation(
                    "recovery",
                    f"replaying {site_id}'s log yields {key}={value!r} "
                    f"but the live store holds {live!r}",
                ))
    return violations


# -- non-blocking termination (Paxos Commit) ---------------------------------------


#: slack on top of ``paxos_decision_timeout`` before a missing decision
#: counts as blocking: watchdog stagger across participants, a couple of
#: termination rounds at unit latency, and one participant crash/recover
#: cycle injected by the enumerator mid-window
_NONBLOCKING_SLACK = 60.0


def _check_nonblocking(system: System) -> list[Violation]:
    """Nothing elsewhere may wait for a crashed coordinating site.

    For every outage of a coordinating site that lasted at least the
    budget (``paxos_decision_timeout`` + slack), at every other site: a
    subtransaction of a transaction coordinated there that never voted
    holds no lock across the budget's end, and under PAXOS a YES voter
    decided within it.  Shorter outages are vacuous: the coordinator came
    back in time to finish the protocol itself.
    """
    paxos = system.config.scheme is CommitScheme.PAXOS
    violations: list[Violation] = []
    budget = (
        system.config.commit.paxos_decision_timeout + _NONBLOCKING_SLACK
    )
    for outage in system.failures.outages:
        down, deadline = outage.site_id, outage.start + budget
        if outage.end is not None and outage.end < deadline:
            continue
        why = f"its coordinating site {down} was down from {outage.start:g}"
        for txn_id, spec in system.specs.items():
            if not spec.subtxns or spec.subtxns[0].site_id != down:
                continue
            for site_id in sorted(set(system.participants) - {down}):
                state = system.participants[site_id].subtxns.get(txn_id)
                if state is not None and state.voted is None:
                    log = system.sites[site_id].locks.hold_log
                    held = [
                        key for txn, key, granted, released in zip(
                            log.txn, log.key, log.granted, log.released,
                        )
                        if txn == txn_id and granted <= deadline < released
                    ]
                    if held:
                        violations.append(Violation("nonblocking", (
                            f"{site_id} held {held[0]} for {txn_id}, which "
                            f"it never voted on, past t={deadline:g}: {why}"
                            " — an orphan must be aborted, not kept"
                        )))
                elif paxos and state is not None and state.voted == "YES":
                    decided_at = (
                        float("inf") if state.decided is None
                        else state.decided_at
                    )
                    if decided_at is not None and decided_at > deadline:
                        violations.append(Violation("nonblocking", (
                            f"{site_id} voted YES on {txn_id} but had not "
                            f"decided by t={deadline:g}: {why} — Paxos "
                            "Commit must not block"
                        )))
    return violations


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()
