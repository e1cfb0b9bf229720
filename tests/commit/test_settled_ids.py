"""What a checkpoint settled is still answered for, across a restart.

A fuzzy checkpoint drops every record of a settled transaction and the
per-transaction state that went with it; the log's settled-id table
keeps its outcome.  These are the readers that still ask: the ACK of a
``DECISION(COMMIT)`` that a restarted coordinator host re-sends (its
stamp must pass the covering check at the send seam), the host's
``ask``, and the refusal of a reused id after a participant's restart.
"""

import pytest

from repro.commit import CommitScheme
from repro.commit.host import CoordinatorHost
from repro.harness import System, SystemConfig
from repro.net.message import COVERING, Message, MsgType
from repro.storage.wal import RecordType
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec
from repro.txn.transaction import VotePolicy


def new_system(scheme=CommitScheme.O2PC):
    return System(SystemConfig(
        n_sites=2, scheme=scheme, keys_per_site=2, seed=1,
    ))


def transfer(txn_id, sites=("S1", "S2"), vote=VotePolicy.AUTO):
    first, *rest = sites
    return GlobalTxnSpec(txn_id, [
        SubtxnSpec(first, [SemanticOp("withdraw", "k0", {"amount": 1})]),
        *(SubtxnSpec(site, [SemanticOp("deposit", "k0", {"amount": 1})],
                     vote=vote) for site in rest),
    ])


def settle_away(system, site_id, txn_id):
    """Run local work at ``site_id`` until a checkpoint has dropped every
    record of ``txn_id`` there."""
    site = system.sites[site_id]
    for n in range(40):
        if site.wal.forgot(txn_id):
            return
        system.env.run(system.run_local(
            site_id, f"L.{txn_id}.{n}",
            [SemanticOp("deposit", "k1", {"amount": 1})],
        ))
    raise AssertionError(f"{txn_id} never settled away at {site_id}")


def restart(system, site_id):
    system.failures.crash(site_id)
    system.failures.recover(site_id)
    system.env.run()


def crash_once_decided(system, site_id, txn_id):
    """Crash ``site_id`` as soon as its coordinator of ``txn_id`` has
    logged the DECIDE, before an ACK can come back."""
    wal = system.sites[site_id].wal

    def watch():
        while not any(
            r.record_type is RecordType.DECIDE
            for r in wal.records_for(f"coord.{txn_id}")
        ):
            yield system.env.timeout(0.25)
        system.failures.crash(site_id)

    system.env.process(watch())


@pytest.mark.parametrize(
    "scheme", sorted(CommitScheme, key=lambda s: s.name), ids=lambda s: s.name,
)
def test_a_resent_commit_for_a_truncated_transaction_is_acked(scheme):
    system = new_system(scheme)
    submitted = system.submit(transfer("T1"))
    crash_once_decided(system, "S1", "T1")
    system.env.run(until=30)
    assert not system.failures.is_up("S1")
    assert system.sites["S2"].wal.status_of("T1") is RecordType.COMMIT
    settle_away(system, "S2", "T1")
    assert "T1" not in system.participants["S2"].subtxns

    # The restarted host re-sends COMMIT; S2 ACKs it with the settled-id
    # table's stand-in for its dropped COMMIT record, which the send seam
    # accepts as durable.
    system.failures.recover("S1")
    system.env.run()
    assert submitted.value.committed
    assert system.hosts["S1"].pending == {}
    end = system.sites["S1"].wal.records_for("coord.T1")[-1]
    assert end.record_type is RecordType.COORD_END


def test_ask_tells_the_outcome_of_a_truncated_coordination():
    system = new_system()
    assert system.run_transaction(transfer("T1")).committed
    assert not system.run_transaction(
        transfer("T2", vote=VotePolicy.FORCE_NO),
    ).committed
    system.env.run()
    settle_away(system, "S1", "coord.T1")
    settle_away(system, "S1", "coord.T2")
    restart(system, "S1")

    told = {}
    host = CoordinatorHost(
        system.participants["S1"],
        reply=lambda caller, txn, cover, outcome: told.update(
            {txn: (cover, outcome)},
        ),
    )
    host.ask("T1", None)
    host.ask("T2", None)
    cover, outcome = told["T1"]
    assert outcome.committed
    # a told COMMIT is checked as a DECISION(COMMIT): the stand-in covers it
    assert COVERING[MsgType.DECISION].check(Message(
        MsgType.DECISION, "S1", "client", "T1", {"decision": "COMMIT"},
        covers=cover,
    ))
    assert not told["T2"][1].committed


@pytest.mark.parametrize("truncated", [False, True], ids=["logged", "settled"])
def test_a_reused_id_is_refused_after_a_restart(truncated):
    system = new_system()
    assert system.run_transaction(transfer("T1")).committed
    system.env.run()
    if truncated:
        settle_away(system, "S2", "T1")
    restart(system, "S2")
    assert "T1" not in system.participants["S2"].subtxns

    reuse = system.run_transaction(transfer("T1", sites=("S2",)))
    assert not reuse.committed and reuse.rejections == 1
    assert system.participants["S2"].reused_ids_refused == 1
