"""Text timelines: render what a run did, for humans.

Renderers over a finished (or running) :class:`~repro.harness.system.System`
— the implementations behind :meth:`System.timeline`,
:meth:`System.lock_gantt`, and :meth:`System.marking_audit` (the
``repro.harness.trace`` module keeps the old function names as deprecation
shims):

* :func:`render_timeline` — one line per global transaction: submit →
  decision → termination, with outcome and compensation annotations;
* :func:`render_lock_gantt` — per site, one line per (transaction, key)
  hold interval, drawn as a bar over a discretized time axis.  The
  O2PC-vs-2PL story is visible at a glance: O2PC bars end at the vote, 2PL
  bars extend through the decision round (or an entire coordinator outage);
* :func:`render_marking_audit` — chronology of marking transitions and
  UDUM/quiescence clearings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.system import System


def _bar(start: float, end: float, t0: float, t1: float, width: int) -> str:
    """Render one [start, end] interval on a [t0, t1] axis of ``width``."""
    span = max(t1 - t0, 1e-9)
    left = int((start - t0) / span * width)
    right = max(left + 1, int((end - t0) / span * width))
    left = max(0, min(width - 1, left))
    right = max(1, min(width, right))
    return " " * left + "#" * (right - left) + " " * (width - right)


def render_timeline(system: "System", width: int = 50) -> str:
    """One line per terminated global transaction."""
    outcomes = sorted(system.outcomes, key=lambda o: o.start_time)
    if not outcomes:
        return "(no transactions)"
    t0 = min(o.start_time for o in outcomes)
    t1 = max(o.end_time for o in outcomes)
    lines = [
        f"transactions  t={t0:.1f} .. {t1:.1f}  "
        f"(axis width {width} chars)"
    ]
    for outcome in outcomes:
        verdict = "COMMIT" if outcome.committed else "ABORT "
        extras = []
        if outcome.no_votes:
            extras.append(f"NO@{','.join(outcome.no_votes)}")
        if outcome.compensated_sites:
            extras.append(f"CT@{','.join(outcome.compensated_sites)}")
        if outcome.rejections:
            extras.append(f"rej x{outcome.rejections}")
        bar = _bar(outcome.start_time, outcome.end_time, t0, t1, width)
        lines.append(
            f"{outcome.txn_id:>5} |{bar}| {verdict} "
            f"{' '.join(extras)}".rstrip()
        )
    return "\n".join(lines)


def render_lock_gantt(
    system: "System", site_id: str, width: int = 50,
    keys: list[str] | None = None,
) -> str:
    """Per-(transaction, key) lock-hold bars at one site."""
    site = system.sites[site_id]
    holds = [
        h for h in site.locks.hold_log
        if keys is None or h.key in keys
    ]
    if not holds:
        return f"{site_id}: (no lock holds)"
    t0 = min(h.granted_at for h in holds)
    t1 = max(h.released_at for h in holds)
    lines = [f"locks at {site_id}  t={t0:.1f} .. {t1:.1f}"]
    for hold in sorted(holds, key=lambda h: (h.granted_at, h.key)):
        bar = _bar(hold.granted_at, hold.released_at, t0, t1, width)
        lines.append(
            f"{hold.txn_id:>5} {hold.mode.value} {hold.key:<6} |{bar}| "
            f"{hold.duration:.1f}"
        )
    return "\n".join(lines)


def render_marking_audit(system: "System") -> str:
    """Chronology of marking transitions and clearings across all sites."""
    directory = system.marking.directory
    lines = ["marking transitions (site: txn old --event--> new)"]
    for site_id in sorted(directory.machines):
        machine = directory.machines[site_id]
        for txn, old, event, new in machine.transitions:
            lines.append(
                f"  {site_id}: {txn} {old.value} --{event.value}--> {new.value}"
            )
        forgotten = sum(machine.counts.values()) - len(machine.transitions)
        if forgotten:
            lines.append(
                f"  {site_id}: {forgotten} more of forgotten transactions ("
                + ", ".join(
                    f"--{event.value}--> {new.value} x{n}"
                    for (event, new), n in sorted(
                        machine.counts.items(),
                        key=lambda item: (item[0][0].value, item[0][1].value),
                    )
                ) + " in all)"
            )
    if directory.udum_log:
        lines.append("UDUM clearings (txn <- enabling witness)")
        lines.extend(f"  {t} <- {w}" for t, w in directory.udum_log)
    if directory.quiescence_log:
        lines.append("quiescence clearings (txn <- last blocker)")
        lines.extend(f"  {t} <- {w}" for t, w in directory.quiescence_log)
    return "\n".join(lines)
