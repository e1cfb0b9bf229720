#!/usr/bin/env python3
"""Correctness audit: watch a regular cycle form — and P1 prevent it.

Reproduces the paper's central correctness hazard as an observable event:

* ``T1`` spans two sites and aborts after locally committing at S1;
* ``T2`` reads the *compensated* state at S2 but the *uncompensated* state
  at S1 — it is serialized after ``CT1`` at one site and before it at the
  other, a **regular cycle** in the global serialization graph and a
  violation of atomicity of compensation (it observed both worlds).

Running the same schedule under protocol P1 shows rule R1 rejecting T2's
subtransaction until the compensation has run, the retry succeeding, and
the criterion holding.  Each run prints its timeline, the cycle's
step-by-step explanation (when there is one) and the marking audit trail.

Run:  python3 examples/correctness_audit.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.sg import (
    check_atomicity_of_compensation,
    explain_cycle,
    find_regular_cycle,
    render_explanation,
)
from repro.txn import GlobalTxnSpec, ReadOp, SubtxnSpec, VotePolicy, WriteOp


def run(protocol: str):
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, protocol=protocol, n_sites=2,
    ))
    system.submit(GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [WriteOp("k0", "T1-dirty")]),
        SubtxnSpec("S2", [WriteOp("k0", "T1-dirty")],
                   vote=VotePolicy.FORCE_NO),
    ]))

    def submit_t2():
        yield system.env.timeout(4.2)
        yield system.submit(GlobalTxnSpec(txn_id="T2", subtxns=[
            SubtxnSpec("S2", [ReadOp("k0")]),
            SubtxnSpec("S1", [ReadOp("k0")]),
        ]))

    system.env.process(submit_t2())
    system.env.run()
    return system


def report(protocol: str) -> None:
    system = run(protocol)
    print(f"\n=== O2PC + protocol {protocol} ===")
    t2 = next(o for o in system.outcomes if o.txn_id == "T2")
    print(f"T2: {'committed' if t2.committed else 'aborted'}, "
          f"R1 rejections: {t2.rejections}")
    reads = {
        site_id: system.sites[site_id].ltm.read_results.get("T2", {})
        for site_id in sorted(system.sites)
    }
    print(f"T2 read k0 at S1 as {reads['S1'].get('k0')!r}, "
          f"at S2 as {reads['S2'].get('k0')!r}")
    print(system.timeline())

    gsg = system.global_sg()
    cycle = find_regular_cycle(gsg, system.effective_regular_nodes())
    atomicity = check_atomicity_of_compensation(system.global_history())
    if cycle:
        print("regular cycle:", " -> ".join(cycle), " (INCORRECT history)")
        print(render_explanation(
            explain_cycle(gsg, cycle, system.global_history())
        ))
    else:
        print("no regular cycle (criterion holds)")
    print("atomicity of compensation:",
          "violated by " + ", ".join(f"{r} read both {t} and CT"
                                     for r, t in atomicity.violations)
          if atomicity.violations else "preserved")
    print(system.marking_audit())


def main() -> None:
    print("Schedule: T1 aborts after exposing k0 at S1; "
          "T2 reads k0 at both sites in the danger window.")
    report("none")
    report("P1")


if __name__ == "__main__":
    main()
