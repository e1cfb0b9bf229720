"""Compensation after a restart stays semantic (FINDINGS.md §10), no daemons.

An O2PC site that locally committed ``T1`` and was then killed must, on
ABORT, undo ``T1`` with its semantic inverse — not restore ``T1``'s
before-images, which would erase every update made since the locks were
released.  Each test rebuilds the site over the surviving file-backed WAL
the way ``SiteDaemon`` boots a restarted daemon, so the logged forward
operation and the ``TOMBSTONE`` encoding make the round trip through the
file.  (``tests/integration/test_rt_crash_compensation.py`` is the same
story over real daemons and ``kill -9``.)
"""

import pytest

from repro.compensation import CompensationExecutor
from repro.sim import Environment
from repro.storage.recovery import RecoveryManager
from repro.storage.wal import WriteAheadLog
from repro.txn import SemanticOp, Site, WriteOp
from repro.txn.transaction import TxnStatus

DEPOSIT = SemanticOp("deposit", "k0", {"amount": 2})


def boot(path):
    """A site over the WAL file at ``path``, built as a daemon builds one."""
    env = Environment()
    site = Site(env, "S1")
    site.wal = WriteAheadLog("S1", path=str(path))
    site.recovery = RecoveryManager(site.store, site.wal)
    return env, site


def run(env, gen):
    return env.run(env.process(gen))


def locally_commit_then_restart(path, ops):
    """First boot: load ``k0 = 100``, run ``T1``'s ops, vote YES (local
    commit).  Then a fresh site over the same file recovers ``T1``."""
    env, site = boot(path)
    site.load({"k0": 100})
    site.checkpoint()
    site.ltm.begin("T1")
    run(env, site.ltm.run_ops("T1", ops))
    site.ltm.local_commit("T1")
    # The YES vote forced every T1 record: nothing is left in the buffer,
    # so closing here writes no more than a kill -9 would leave.
    site.wal.close()

    env, site = boot(path)
    report = site.restart()
    assert report.locally_committed == ["T1"]
    site.ltm.recover_locally_committed("T1")
    return env, site


def compensate(env, site, txn_id):
    run(env, CompensationExecutor(site).run(txn_id))
    assert site.ltm.status[txn_id] is TxnStatus.COMPENSATED


def test_compensation_keeps_update_made_after_restart(tmp_path):
    env, site = locally_commit_then_restart(tmp_path / "s1.wal", [DEPOSIT])
    assert site.store.get("k0") == 102
    # T2 withdraws 3 from the same item and commits.
    site.ltm.begin("T2")
    run(env, site.ltm.run_ops(
        "T2", [SemanticOp("withdraw", "k0", {"amount": 3})],
    ))
    site.ltm.commit("T2")

    compensate(env, site, "T1")
    # T1 is undone, T2 is not.
    assert site.store.get("k0") == 100 - 3


@pytest.mark.parametrize("ops", [
    [DEPOSIT, WriteOp("k0", 50), WriteOp("k1", 5)],
    [WriteOp("k0", 50), DEPOSIT, WriteOp("k1", 5)],
], ids=["semantic-then-generic", "generic-then-semantic"])
def test_mixed_updates_to_one_key_undo_newest_first(tmp_path, ops):
    """One undo step per update, newest first: undoing the two kinds of
    update to ``k0`` in any other order leaves ``k0`` wrong; ``k1`` was
    absent, so its before-image is a ``TOMBSTONE`` and the undo deletes it."""
    env, site = locally_commit_then_restart(tmp_path / "s1.wal", ops)
    compensate(env, site, "T1")
    assert site.store.snapshot() == {"k0": 100}
