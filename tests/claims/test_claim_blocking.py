"""CLAIM-BLOCK — coordinator failure: 2PC blocks, O2PC does not.

Section 1: 2PC is a blocking protocol; a coordinator crash between the vote
and the decision leaves participants holding locks for the whole outage.
O2PC participants released their locks at vote time, so the outage does not
block the sites' data.  The sweep shows 2PL's max lock-hold tracking the
outage duration while O2PC's stays flat.

The coordinator lives in its transaction's first site, S1, and dies with
it, so the outage is S1's: lock hold is measured at the surviving
participant S2.  No decision was logged before the crash, so the restarted
S1 presumes abort.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import ExperimentResult, System, SystemConfig, format_table
from repro.net.failures import CrashPlan
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec


def spec():
    return GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 10})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 10})]),
    ])


def hold_at_s2(system):
    """T1's longest lock hold at the surviving participant."""
    return max(
        h.duration
        for h in system.sites["S2"].locks.hold_log
        if h.txn_id == "T1"
    )


def run_with_outage(scheme, outage):
    system = System(SystemConfig(scheme=scheme))
    proc = system.submit(spec())
    # Votes reach the coordinator at t=6; decision forced at t=6.5.
    system.failures.schedule(
        CrashPlan(site_id="S1", at=6.2, duration=outage)
    )
    outcome = system.env.run(proc)
    system.env.run()
    return hold_at_s2(system), outcome


@pytest.fixture(scope="module")
def outage_sweep():
    rows = []
    for outage in (0.0, 25.0, 100.0, 400.0):
        if outage:
            hold_2pl, o_2pl = run_with_outage(CommitScheme.TWO_PL, outage)
            hold_o2pc, o_o2pc = run_with_outage(CommitScheme.O2PC, outage)
        else:
            system = System(SystemConfig(scheme=CommitScheme.TWO_PL))
            o_2pl = system.env.run(system.submit(spec()))
            hold_2pl = hold_at_s2(system)
            system = System(SystemConfig(scheme=CommitScheme.O2PC))
            o_o2pc = system.env.run(system.submit(spec()))
            hold_o2pc = hold_at_s2(system)
        # an outage before the DECIDE ends in presumed abort
        assert o_2pl.committed == o_o2pc.committed == (not outage)
        rows.append(ExperimentResult(
            params={"outage": outage},
            measures={"max_hold_2pl": hold_2pl, "max_hold_o2pc": hold_o2pc},
        ))
    return rows


def test_blocking_table(outage_sweep):
    print()
    print(format_table(
        outage_sweep,
        title="CLAIM-BLOCK: max lock-hold at S2 vs coordinating-site outage",
    ))


def test_2pl_hold_tracks_outage(outage_sweep):
    """The blocking window is unbounded: hold ~ outage + protocol rounds."""
    for row in outage_sweep:
        if row.params["outage"] > 0:
            assert row.measures["max_hold_2pl"] >= row.params["outage"]


def test_o2pc_hold_flat(outage_sweep):
    holds = [r.measures["max_hold_o2pc"] for r in outage_sweep]
    assert max(holds) - min(holds) < 1e-9
    assert max(holds) < 10.0
