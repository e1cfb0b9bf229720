#!/usr/bin/env python3
"""Quickstart: one O2PC transaction end to end.

Builds a three-site multidatabase, runs a cross-site funds transfer under
the optimistic two-phase commit protocol, then runs a second transfer that
a site refuses — showing the compensation path restore the money — and
finally checks the paper's correctness criterion on the whole run and
draws both transactions on a timeline.

Run:  python3 examples/quickstart.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec, VotePolicy


def main() -> None:
    # A three-site system running O2PC with the P1 complementary protocol.
    system = System(SystemConfig(
        n_sites=3,
        scheme=CommitScheme.O2PC,
        protocol="P1",
    ))
    print("sites:", ", ".join(sorted(system.sites)))
    print("initial balance of k0 everywhere:",
          system.sites["S1"].store.get("k0"))

    # --- a successful transfer -------------------------------------------
    transfer = GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 30})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 30})]),
    ])
    outcome = system.run_transaction(transfer)
    print(f"\nT1 (transfer 30 from S1 to S2): "
          f"{'COMMITTED' if outcome.committed else 'ABORTED'} "
          f"in {outcome.latency:.1f} time units")
    print("  S1.k0 =", system.sites["S1"].store.get("k0"),
          " S2.k0 =", system.sites["S2"].store.get("k0"))

    # --- a refused transfer: semantic atomicity via compensation ----------
    refused = GlobalTxnSpec(txn_id="T2", subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 50})]),
        # S3 votes NO (models a unilateral local refusal).
        SubtxnSpec("S3", [SemanticOp("deposit", "k0", {"amount": 50})],
                   vote=VotePolicy.FORCE_NO),
    ])
    outcome = system.run_transaction(refused)
    system.env.run()  # drain the compensation
    print(f"\nT2 (transfer 50 from S1 to S3, S3 refuses): "
          f"{'COMMITTED' if outcome.committed else 'ABORTED'}")
    print("  compensated at:", ", ".join(outcome.compensated_sites) or "-")
    print("  S1.k0 =", system.sites["S1"].store.get("k0"),
          "(the 50 came back)",
          " S3.k0 =", system.sites["S3"].store.get("k0"))

    # --- the correctness criterion on the full run -------------------------
    system.check_correctness()
    print("\ncorrectness criterion: OK (no regular cycles, no local cycles)")

    # Peek at the serialization-graph machinery.
    gsg = system.global_sg()
    for site_id in sorted(gsg.locals):
        edges = gsg.locals[site_id].edges()
        if edges:
            print(f"  SG_{site_id}:",
                  ", ".join(f"{a}->{b}" for a, b in edges))

    print()
    print(system.timeline())


if __name__ == "__main__":
    main()
