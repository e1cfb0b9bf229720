"""Exact kernel counts of one seeded run: what a wait costs is gated.

Every round of the commit protocol waits under a timeout that almost
never fires, and so does every blocked lock request under a lock timeout.
A wait that ends early withdraws its timer, so

* the run ends when its last transaction does: ``env.now`` after
  ``env.run()`` is the last outcome's ``end_time``, with no dead
  deadline left to carry the clock past it;
* ``env.schedule_count`` — every event the kernel was handed, a
  withdrawn timer's included — is pinned exactly.  It moves only when
  the simulation does different work; the benchmark's
  ``sim.dispatches_per_txn`` reads the same counter.
"""

import pytest

from repro.commit.base import CommitScheme
from repro.harness.system import System, SystemConfig
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

#: scheme -> (lock timeout, committed of 200, env.schedule_count)
PINNED = {
    CommitScheme.O2PC: (None, 146, 7045),
    CommitScheme.TWO_PL: (10.0, 88, 6095),
}


def seeded_run(scheme, lock_timeout):
    system = System(SystemConfig(
        n_sites=4, scheme=scheme, keys_per_site=8, seed=3,
        lock_timeout=lock_timeout,
    ))
    specs = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=200, zipf_theta=0.8, abort_probability=0.05,
    ), seed=3).specs()
    system.env.run(system.submit_stream(specs, arrival_mean=1.0, seed=3))
    system.env.run()
    return system


@pytest.mark.parametrize("scheme", sorted(PINNED, key=lambda s: s.name))
def test_seeded_run_counts_are_pinned(scheme):
    lock_timeout, committed, schedules = PINNED[scheme]
    system = seeded_run(scheme, lock_timeout)
    outcomes = system.outcomes
    assert len(outcomes) == 200
    assert sum(o.committed for o in outcomes) == committed
    assert system.env.now == max(o.end_time for o in outcomes)
    assert system.env.schedule_count == schedules
