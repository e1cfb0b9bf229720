"""Marking state drains at quiescence, under every commit scheme.

Marks belong to O2PC (only its exposed updates need them).  An engine
that marks the NO voter but not its prepared peers leaves a mark no rule
can clear, and the directory then grows with every abort; this pins the
bounded end state, and that such a leak no longer costs P1 rejections
outside O2PC.
"""

import pytest

from repro.commit.base import CommitScheme
from repro.harness.system import System, SystemConfig
from repro.txn.operations import SemanticOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, VotePolicy
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


@pytest.mark.parametrize("scheme", list(CommitScheme), ids=lambda s: s.name)
def test_marking_state_is_empty_after_quiescence(scheme):
    system = System(SystemConfig(n_sites=3, scheme=scheme, seed=3))
    WorkloadGenerator(system, WorkloadConfig(
        n_transactions=300, abort_probability=0.3, arrival_mean=1.0,
    ), seed=3).run()
    assert len(system.outcomes) == 300
    assert any(not o.committed for o in system.outcomes)
    directory = system.directory
    assert not directory.active
    for site_id, machine in directory.machines.items():
        assert machine.undone_set() == set(), site_id
    assert directory.blockers == {}
    assert directory.witnesses == {}


def test_two_pl_abort_does_not_make_p1_reject_its_successor():
    system = System(SystemConfig(
        n_sites=2, scheme=CommitScheme.TWO_PL, protocol="P1",
    ))
    deposit = SemanticOp("deposit", "k0", {"amount": 5})
    aborted = system.run_transaction(GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [deposit]),
        SubtxnSpec("S2", [deposit], vote=VotePolicy.FORCE_NO),
    ]))
    follower = system.run_transaction(GlobalTxnSpec("T2", [
        SubtxnSpec("S1", [deposit]),
        SubtxnSpec("S2", [deposit]),
    ]))
    assert not aborted.committed
    assert follower.committed
    assert system.marking.rejections == 0
