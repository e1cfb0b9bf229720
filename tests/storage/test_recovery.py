"""Unit tests for rollback and crash-restart recovery.

Rolling back a live transaction is ``LocalTransactionManager.abort_local``
(before-images from the log, newest first); crash restart is
``RecoveryManager.restart``.
"""

import pytest

from repro.errors import InvalidTransactionState
from repro.sim import Environment
from repro.storage import KVStore, RecordType, RecoveryManager, WriteAheadLog
from repro.storage.kvstore import TOMBSTONE
from repro.txn import SemanticOp, Site, WriteOp


def make_engine():
    store = KVStore("S1")
    wal = WriteAheadLog("S1")
    return store, wal, RecoveryManager(store, wal)


def logged_put(store, wal, txn, key, value):
    """Helper mirroring the transaction layer's WAL-then-store discipline."""
    before = store.snapshot_value(key)
    wal.append(RecordType.UPDATE, txn, key=key, before=before, after=value)
    store.put(key, value)


def site_with(txn_id, ops, data=None):
    """A site where ``txn_id`` has run ``ops`` and is still active."""
    env = Environment()
    site = Site(env, "S1")
    site.load(data or {})
    site.ltm.begin(txn_id)
    env.run(env.process(site.ltm.run_ops(txn_id, ops)))
    return site


def test_rollback_restores_before_images():
    site = site_with("T1", [WriteOp("x", 99), WriteOp("y", 1)], {"x": 10})
    site.ltm.abort_local("T1")
    assert site.store.snapshot() == {"x": 10}
    assert site.wal.status_of("T1") is RecordType.ABORT


def test_rollback_undoes_in_reverse_order():
    site = site_with("T1", [WriteOp("x", 1), WriteOp("x", 2)])
    site.ltm.abort_local("T1")
    assert not site.store.exists("x")


def test_rollback_of_terminated_rejected():
    site = site_with("T1", [WriteOp("x", 1)])
    site.ltm.commit("T1")
    with pytest.raises(InvalidTransactionState):
        site.ltm.abort_local("T1")


def test_rollback_of_locally_committed_rejected():
    """A locally-committed transaction exposed its updates: compensation,
    not state-based undo, is the only legal revocation (Section 2)."""
    site = site_with("T1", [WriteOp("x", 5)])
    site.ltm.local_commit("T1")
    with pytest.raises(InvalidTransactionState, match="LOCALLY_COMMITTED"):
        site.ltm.abort_local("T1")
    assert site.store.get("x") == 5


def test_deleted_key_stays_deleted_after_restart():
    """A delete logs ``TOMBSTONE`` as its after-image, so restart redo
    removes the key instead of reinstalling it with the value None."""
    site = site_with("T1", [SemanticOp("delete", "k0")], {"k0": 100})
    site.ltm.commit("T1")
    assert site.wal.updates_for("T1")[0].after is TOMBSTONE
    live = site.store.snapshot()
    site.crash()
    site.restart()
    assert site.store.snapshot() == live == {}


def test_restart_redoes_committed():
    store, wal, rec = make_engine()
    wal.append(RecordType.BEGIN, "T1")
    logged_put(store, wal, "T1", "x", 7)
    wal.append(RecordType.COMMIT, "T1")
    store.wipe()
    report = rec.restart()
    assert store.get("x") == 7
    assert report.redone == ["T1"]


def test_restart_redoes_locally_committed_and_reports_it():
    store, wal, rec = make_engine()
    wal.append(RecordType.BEGIN, "T1")
    logged_put(store, wal, "T1", "x", 7)
    wal.append(RecordType.PREPARE, "T1", force=True)
    wal.append(RecordType.LOCAL_COMMIT, "T1", force=True)
    store.wipe()
    report = rec.restart()
    assert store.get("x") == 7
    assert report.locally_committed == ["T1"]


def test_restart_undoes_in_flight():
    store, wal, rec = make_engine()
    wal.append(RecordType.BEGIN, "T1")
    logged_put(store, wal, "T1", "x", 7)
    store.wipe()
    report = rec.restart()
    assert not store.exists("x")
    assert report.undone == ["T1"]
    assert wal.is_terminated("T1")


def test_restart_reports_in_doubt():
    store, wal, rec = make_engine()
    wal.append(RecordType.BEGIN, "T1")
    logged_put(store, wal, "T1", "x", 7)
    wal.append(RecordType.PREPARE, "T1", force=True)
    store.wipe()
    report = rec.restart()
    assert report.in_doubt == ["T1"]
    assert not wal.is_terminated("T1")


def test_restart_mixed_outcomes():
    store, wal, rec = make_engine()
    for txn, outcome in (("T1", "commit"), ("T2", None), ("T3", "local")):
        wal.append(RecordType.BEGIN, txn)
        logged_put(store, wal, txn, f"k{txn}", txn)
        if outcome == "commit":
            wal.append(RecordType.COMMIT, txn)
        elif outcome == "local":
            wal.append(RecordType.LOCAL_COMMIT, txn)
    store.wipe()
    report = rec.restart()
    assert store.get("kT1") == "T1"
    assert store.get("kT3") == "T3"
    assert not store.exists("kT2")
    assert sorted(report.redone) == ["T1", "T3"]
    assert report.undone == ["T2"]


def test_restart_redo_applies_in_lsn_order():
    store, wal, rec = make_engine()
    wal.append(RecordType.BEGIN, "T1")
    logged_put(store, wal, "T1", "x", 1)
    wal.append(RecordType.COMMIT, "T1")
    wal.append(RecordType.BEGIN, "T2")
    logged_put(store, wal, "T2", "x", 2)
    wal.append(RecordType.COMMIT, "T2")
    store.wipe()
    rec.restart()
    assert store.get("x") == 2


def test_restart_deletion_redo():
    store, wal, rec = make_engine()
    store.put("x", 1)
    wal.append(RecordType.BEGIN, "T0")
    wal.append(RecordType.UPDATE, "T0", key="x", before=TOMBSTONE, after=1)
    wal.append(RecordType.COMMIT, "T0")
    wal.append(RecordType.BEGIN, "T1")
    wal.append(RecordType.UPDATE, "T1", key="x", before=1, after=TOMBSTONE)
    store.delete("x")
    wal.append(RecordType.COMMIT, "T1")
    store.wipe()
    rec.restart()
    assert not store.exists("x")
