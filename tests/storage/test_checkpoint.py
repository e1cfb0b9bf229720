"""Unit tests for fuzzy checkpoints and log truncation."""

import pytest

from repro.errors import WALError
from repro.sim import Environment
from repro.storage import KVStore, RecordType, RecoveryManager, WriteAheadLog
from repro.txn import Site, WriteOp


def logged_put(store, wal, txn, key, value):
    before = store.snapshot_value(key)
    wal.append(RecordType.UPDATE, txn, key=key, before=before, after=value)
    store.put(key, value)


def committed(store, wal, txn, key, value):
    wal.append(RecordType.BEGIN, txn)
    logged_put(store, wal, txn, key, value)
    wal.append(RecordType.COMMIT, txn, force=True)


class TestWALCheckpoint:
    def test_checkpoint_record_carries_snapshot(self):
        store, wal = KVStore(), WriteAheadLog()
        store.put("a", 1)
        wal.checkpoint(store.snapshot())
        record = wal.last_checkpoint()
        assert record.record_type is RecordType.CHECKPOINT
        assert record.payload == {
            "snapshot": {"a": 1}, "settled": {}, "low_water": 1,
        }
        assert wal.forced_writes == 0  # a fuzzy checkpoint is unforced
        assert wal.checkpoints == 1

    def test_truncate_drops_prefix_and_keeps_lsns(self):
        store, wal = KVStore(), WriteAheadLog()
        committed(store, wal, "T1", "a", 1)
        wal.append(RecordType.BEGIN, "T2")
        assert wal.checkpoint(store.snapshot()) == ["T1"]
        checkpoint = wal.last_checkpoint()
        assert checkpoint.payload["low_water"] == 4  # T2's BEGIN
        assert wal.low_water == 4
        assert wal.record_at(checkpoint.lsn) is checkpoint
        with pytest.raises(WALError):
            wal.record_at(1)
        # Post-checkpoint chains intact.
        assert wal.records_for("T2")[0].record_type is RecordType.BEGIN
        # Pre-checkpoint chains are gone, not corrupted: the settled-id
        # table answers for them.
        assert wal.records_for("T1") == []
        assert wal.settled == {"T1": True}
        assert wal.status_of("T1") is RecordType.COMMIT
        assert wal.knows("T1") and wal.forgot("T1")
        assert wal.appended == 5 and len(wal) == 2

    def test_truncate_requires_checkpoint(self):
        # Appending never drops a record: only a checkpoint does.
        store, wal = KVStore(), WriteAheadLog()
        for n in range(5):
            committed(store, wal, f"T{n}", "a", n)
        assert wal.wants_checkpoint(snapshot_keys=1)
        assert len(wal) == 15
        assert wal.record_at(1).txn_id == "T0"

    def test_checkpoint_keeps_unsettled_records(self):
        store, wal = KVStore(), WriteAheadLog()
        store.put("a", 0)
        wal.append(RecordType.BEGIN, "T1")
        logged_put(store, wal, "T1", "a", 5)  # T1 stays open
        committed(store, wal, "T2", "b", 2)
        assert not wal.wants_checkpoint(snapshot_keys=0)
        assert wal.checkpoint(store.snapshot()) == []
        assert wal.low_water == 1
        assert [r.record_type for r in wal.records_for("T1")] == [
            RecordType.BEGIN, RecordType.UPDATE,
        ]
        # The open writer's key is set back to its before-image.
        assert wal.last_checkpoint().payload["snapshot"] == {"a": 0, "b": 2}

    def test_an_undurable_tail_is_kept(self):
        store, wal = KVStore(), WriteAheadLog()
        committed(store, wal, "T1", "a", 1)
        wal.append(RecordType.BEGIN, "T2")
        wal.append(RecordType.COMMIT, "T2")  # not forced: not yet durable
        assert wal.checkpoint(store.snapshot()) == ["T1"]
        assert wal.low_water == 4
        assert "T2" not in wal.settled
        # A dropped record's stand-in stamp is durable and of its kind.
        log, stand_in = wal.cover("T1")
        assert log is wal and stand_in.record_type is RecordType.COMMIT
        assert stand_in.lsn <= wal.durable_lsn

    def test_a_coordinator_keeps_its_decision(self):
        store, wal = KVStore(), WriteAheadLog()
        wal.append(RecordType.COORD_BEGIN, "coord.T1", sites=["S1"])
        wal.append(RecordType.DECIDE, "coord.T1", force=True,
                   decision="COMMIT", sites=["S1"])
        wal.append(RecordType.COORD_END, "coord.T1", force=True)
        wal.append(RecordType.COORD_BEGIN, "coord.T2", sites=["S1"])
        wal.append(RecordType.COORD_END, "coord.T2", force=True)
        assert wal.checkpoint({}) == ["coord.T1", "coord.T2"]
        assert wal.settled == {"coord.T1": True, "coord.T2": False}
        stand_in = wal.settled_record("coord.T1")
        assert stand_in.record_type is RecordType.DECIDE
        assert stand_in.payload == {"decision": "COMMIT"}

    def test_an_acceptor_keeps_its_log_whole(self):
        # ACCEPTOR records never settle: a log hosting an acceptor keeps
        # every record from its first one on.
        store, wal = KVStore(), WriteAheadLog()
        committed(store, wal, "T0", "a", 0)
        wal.append(RecordType.ACCEPTOR, "acc.1", force=True,
                   txn="T1", promised=[0, ""])
        for n in range(1, 6):
            committed(store, wal, f"T{n}", "a", n)
        assert wal.checkpoint(store.snapshot()) == ["T0"]
        assert wal.low_water == 4  # the ACCEPTOR record
        assert not wal.wants_checkpoint(snapshot_keys=0)


class TestRecoveryFromCheckpoint:
    def test_restart_uses_snapshot_plus_suffix(self):
        store, wal = KVStore(), WriteAheadLog()
        rec = RecoveryManager(store, wal)
        committed(store, wal, "T1", "a", 1)
        wal.checkpoint(store.snapshot())
        committed(store, wal, "T2", "b", 2)
        wal.append(RecordType.BEGIN, "T3")
        logged_put(store, wal, "T3", "c", 3)   # in flight: must vanish
        store.wipe()
        report = rec.restart()
        assert store.get("a") == 1   # from the snapshot
        assert store.get("b") == 2   # redone from the suffix
        assert not store.exists("c")
        # the settled T1 is reported as a full replay would report it
        assert report.redone == ["T1", "T2"]
        assert report.undone == ["T3"]

    def test_restart_without_checkpoint_unchanged(self):
        store, wal = KVStore(), WriteAheadLog()
        rec = RecoveryManager(store, wal)
        wal.append(RecordType.BEGIN, "T1")
        logged_put(store, wal, "T1", "a", 1)
        wal.append(RecordType.COMMIT, "T1")
        store.wipe()
        rec.restart()
        assert store.get("a") == 1

    def test_restart_replays_an_open_writer_from_the_low_water(self):
        store, wal = KVStore(), WriteAheadLog()
        store.put("a", 0)
        wal.append(RecordType.BEGIN, "T1")
        logged_put(store, wal, "T1", "a", 5)
        wal.append(RecordType.PREPARE, "T1", force=True)
        wal.append(RecordType.LOCAL_COMMIT, "T1", force=True)
        committed(store, wal, "T2", "a", 7)  # overwrites T1's exposed a
        wal.checkpoint(store.snapshot())
        store.wipe()
        report = RecoveryManager(store, wal.clone()).restart()
        assert report.locally_committed == ["T1"]
        assert store.get("a") == 7


class TestSiteCheckpoint:
    def test_site_checkpoint_roundtrip(self):
        env = Environment()
        site = Site(env, "S1")
        site.load({"a": 1})

        def txn():
            site.ltm.begin("L1")
            yield from site.ltm.execute("L1", WriteOp("a", 9))
            site.ltm.commit("L1")

        env.run(env.process(txn()))
        before = len(site.wal)
        site.checkpoint()
        assert len(site.wal) < before + 1  # log shrank to the checkpoint
        site.crash()
        site.restart()
        assert site.store.get("a") == 9

    def test_site_checkpoint_keeps_in_flight(self):
        env = Environment()
        site = Site(env, "S1")
        site.load({"a": 1})

        def txn():
            site.ltm.begin("L1")
            yield from site.ltm.execute("L1", WriteOp("a", 9))
            # no commit: still active

        env.run(env.process(txn()))
        assert site.checkpoint() == []
        assert site.wal.updates_for("L1")[0].after == 9
        site.crash()
        report = site.restart()
        assert site.store.get("a") == 1
        assert report.undone == ["L1"]

    def test_a_site_checkpoints_where_a_transaction_begins(self):
        env = Environment()
        site = Site(env, "S1")
        site.load({"a": 0})

        def txn(n):
            site.ltm.begin(f"L{n}")
            yield from site.ltm.execute(f"L{n}", WriteOp("a", n))
            site.ltm.commit(f"L{n}")

        for n in range(1, 40):
            env.run(env.process(txn(n)))
        assert site.wal.checkpoints > 0
        assert len(site.wal) < 8  # dropped ≤ kept + 1 key before a BEGIN
        assert len(site.ltm.status) < 4
        site.crash()
        site.restart()
        assert site.store.get("a") == 39
