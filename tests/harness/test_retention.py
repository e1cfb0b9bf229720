"""A finished transaction leaves only its records.

A terminated transaction keeps what it is judged by — WAL records, history,
lock-hold log, outcome — and nothing that only its execution needed: its
coordinator, the coordinator's inbox, and the lock tables' shrink-phase
entries.  (A site keeps no undo program: it rebuilds one from the WAL.)
"""

import gc
import weakref

import pytest

from repro.commit import CommitScheme
from repro.errors import TwoPhaseViolation
from repro.harness import System, SystemConfig
from repro.locking.modes import LockMode
from repro.net.message import Message, MsgType
from repro.obs.events import MessageDelivered
from repro.txn import WriteOp
from repro.workload import WorkloadConfig, WorkloadGenerator


def run_workload(scheme):
    """300 transactions, a fifth of them with a forced NO vote, plus local
    transactions; returns the quiesced system and a weak reference to one
    finished coordinator."""
    system = System(SystemConfig(scheme=scheme, n_sites=4, seed=3))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=300, abort_probability=0.2, locals_per_global=0.3,
        zipf_theta=0.8,
    ), seed=3)
    proc = system.submit(gen.make_spec("T0"))
    # the coordinator its host's process runs (an argument of its frame)
    finished = weakref.ref(proc._generator.gi_frame.f_locals["coordinator"])
    del proc
    gen.run()
    return system, finished


@pytest.mark.parametrize("scheme", list(CommitScheme), ids=lambda s: s.name)
def test_quiesced_run_retains_no_execution_state(scheme):
    system, finished = run_workload(scheme)
    assert len(system.outcomes) == 301
    assert any(o.no_votes for o in system.outcomes)
    assert all(not host.coordinating for host in system.hosts.values())
    assert len(system.specs) == 301
    assert [e for e in system.network.endpoints if e.startswith("coord.")] == []
    for site in system.sites.values():
        assert site.locks._shrinking == set(), site.site_id
    gc.collect()
    assert finished() is None


def test_released_transaction_still_cannot_acquire():
    """Forgetting happens at termination, not at release: a subtransaction
    that released its locks at vote time is still in its shrinking phase."""
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    site = system.sites["S1"]
    site.ltm.begin("T1")
    system.env.run(system.env.process(
        site.ltm.run_ops("T1", [WriteOp("k0", 7)])
    ))
    site.ltm.local_commit("T1")
    with pytest.raises(TwoPhaseViolation):
        site.locks.acquire("T1", "k1", LockMode.S)
    site.ltm.complete_commit("T1")
    assert site.locks._shrinking == set()


def test_late_ack_to_retired_endpoint_is_delivered_then_discarded():
    system = System(SystemConfig(observability=True))
    gen = WorkloadGenerator(system, WorkloadConfig(n_transactions=1))
    system.run_transaction(gen.make_spec("T1"))
    delivered = system.network.delivered[MsgType.ACK]
    system.network.send(Message(
        msg_type=MsgType.ACK, sender="S1", recipient="coord.T1",
        txn_id="T1", payload={},
        covers=system.sites["S1"].wal.cover("T1"),  # its durable COMMIT
    ))
    system.env.run()
    assert system.network.delivered[MsgType.ACK] == delivered + 1
    last = [e for e in system.events() if isinstance(e, MessageDelivered)][-1]
    assert (last.recipient, last.msg_type) == ("coord.T1", "ACK")
    # The retired name comes back with a fresh, empty inbox.
    assert system.network.register("coord.T1").items == []
