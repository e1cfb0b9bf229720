#!/usr/bin/env python3
"""Failure drill: crash the coordinator mid-commit and watch who blocks.

The paper's motivating problem (Section 1): 2PC is a blocking protocol —
a participant that voted YES holds its locks until the coordinator's
decision arrives, so a coordinator crash freezes the participant's data
for the whole outage.  O2PC participants release at vote time and sail
through the same outage.

A coordinator lives in its transaction's first site (S1) and dies with
it.  The drill crashes S1 for 150 time units right between collecting the
votes and logging the decision, then measures how long a bystander
transaction at the surviving participant S2 is stalled, and draws S2's
lock timeline: 2PL bars span the outage, O2PC bars end at the vote.  With
no decision in its log, the restarted S1 presumes abort, so T1 aborts
under both schemes (O2PC compensates the deposit it exposed).

Run:  python3 examples/failure_drill.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec

OUTAGE = 150.0


def drill(scheme: CommitScheme) -> None:
    system = System(SystemConfig(n_sites=2, scheme=scheme))
    proc = system.submit(GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 10})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 10})]),
    ]))
    # Votes reach the coordinator at t=6; the decision record is forced at
    # t=6.5.  Crash its site inside that window.
    system.failures.schedule(CrashPlan(site_id="S1", at=6.2, duration=OUTAGE))

    # A bystander arrives at t=10 wanting the same account at S2.
    stall = {}

    def bystander():
        yield system.env.timeout(10.0)
        requested = system.env.now
        yield system.run_local(
            "S2", "L1", [SemanticOp("deposit", "k0", {"amount": 1})],
        )
        stall["time"] = system.env.now - requested

    system.env.process(bystander())
    outcome = system.env.run(proc)
    system.env.run()

    max_hold = max(
        h.duration
        for h in system.sites["S2"].locks.hold_log
        if h.txn_id == "T1"
    )
    print(f"\n=== {scheme.value} ===")
    print(f"T1 {'committed' if outcome.committed else 'aborted'} "
          f"at t={outcome.end_time:.1f} "
          f"(decision delayed by the {OUTAGE:.0f}-unit outage of S1)")
    print(f"T1's longest lock hold at S2: {max_hold:.1f} time units")
    print(f"bystander stalled for: {stall['time']:.1f} time units")
    print(system.lock_gantt("S2"))


def main() -> None:
    print(f"S1, T1's coordinating site, crashes for {OUTAGE:.0f} time units "
          "after the votes.")
    drill(CommitScheme.TWO_PL)
    drill(CommitScheme.O2PC)
    print(
        "\nUnder 2PL the surviving participant sat in the prepared state"
        "\nholding locks for the whole outage (the blocking problem); under"
        "\nO2PC it had already released at vote time, so the bystander ran"
        "\nimmediately and only the transaction's own completion waited."
    )


if __name__ == "__main__":
    main()
