#!/usr/bin/env python3
"""Serialization witness: prove a run was (semantically) serializable.

Runs an O2PC/P1 workload with aborts, then uses the theory layer to produce
constructive evidence of correctness:

* the global serialization graph's condensation in topological order — the
  serial schedule the execution is equivalent to, with compensations' own
  (allowed) cycles shown as grouped components;
* the atomicity-of-compensation audit: nobody read both a transaction's
  exposed updates and its compensation's;
* a transaction timeline for the same run.

Run:  python3 examples/serialization_witness.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.sg import check_atomicity_of_compensation, serialization_order
from repro.workload import WorkloadConfig, WorkloadGenerator


def main() -> None:
    system = System(SystemConfig(
        n_sites=3, scheme=CommitScheme.O2PC, protocol="P1",
        keys_per_site=8,
    ))
    # The witness orders the whole history: keep all of it (the judge
    # would forget settled transactions as the run goes).
    system.judge.stop()
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=12, abort_probability=0.25,
        read_fraction=0.5, arrival_mean=3.0, zipf_theta=0.5,
    ), seed=4)
    gen.run()

    committed = sum(1 for o in system.outcomes if o.committed)
    print(f"{committed} committed, {len(system.outcomes) - committed} "
          f"aborted (compensated)\n")
    print(system.timeline())

    print("\nserialization witness (topological order of the global SG):")
    order = serialization_order(
        system.global_sg(), system.effective_regular_nodes(),
    )
    rendered = []
    for group in order:
        rendered.append(
            group[0] if len(group) == 1 else "{" + " ".join(group) + "}"
        )
    print("  " + "  <  ".join(rendered))
    grouped = [g for g in order if len(g) > 1]
    if grouped:
        print("  (braced groups are compensation-only cycles — the kind "
              "the criterion allows)")

    audit = check_atomicity_of_compensation(system.global_history())
    print(f"\natomicity of compensation: "
          f"{'preserved' if audit.ok else audit.violations}")


if __name__ == "__main__":
    main()
