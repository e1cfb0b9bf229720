"""CLAIM-REAL — non-compensatable actions (Section 2).

Sites performing real actions retain locks and delay the action until the
decision (as in distributed 2PL); all other sites of the transaction still
release early.  The table splits lock-hold times by site class.
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import ExperimentResult, System, SystemConfig, format_table
from repro.sim import Rng
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec


def run_mixed(n_txns=30, seed=5):
    """Half the transactions dispense cash (a real action) at S1."""
    system = System(SystemConfig(scheme=CommitScheme.O2PC, n_sites=4))
    rng = Rng(seed)
    sites = sorted(system.sites)

    def submit_all():
        for i in range(1, n_txns + 1):
            yield system.env.timeout(rng.exponential(3.0))
            others = rng.sample(sites[1:], 2)
            subtxns = [SubtxnSpec(
                "S1",
                [SemanticOp("dispense", f"k{i % 20}", {"amount": 5})],
                real_action=True,
            )]
            subtxns += [
                SubtxnSpec(s, [SemanticOp(
                    "withdraw", f"k{i % 20}", {"amount": 5},
                )])
                for s in others
            ]
            system.submit(GlobalTxnSpec(txn_id=f"T{i}", subtxns=subtxns))

    system.env.process(submit_all())
    system.env.run()
    return system


@pytest.fixture(scope="module")
def hold_rows():
    system = run_mixed()
    assert all(o.committed for o in system.outcomes)

    def mean_hold(site_id):
        holds = [
            h.duration for h in system.sites[site_id].locks.hold_log
            if not h.txn_id.startswith("CT")
        ]
        return sum(holds) / len(holds)

    rows = [
        ExperimentResult(
            params={"site": sid,
                    "class": "real action" if sid == "S1" else "compensatable"},
            measures={"mean_hold": mean_hold(sid)},
        )
        for sid in sorted(system.sites)
        if system.sites[sid].locks.hold_log
    ]
    return rows


def test_real_action_table(hold_rows):
    print()
    print(format_table(
        hold_rows, title="CLAIM-REAL: lock-hold by site class",
    ))


def test_real_action_site_holds_longer(hold_rows):
    real = [r for r in hold_rows if r.params["class"] == "real action"]
    comp = [r for r in hold_rows if r.params["class"] == "compensatable"]
    assert real and comp
    slowest_comp = max(r.measures["mean_hold"] for r in comp)
    for row in real:
        assert row.measures["mean_hold"] > slowest_comp
