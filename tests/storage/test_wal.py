"""Unit tests for the write-ahead log."""

import pytest

from repro.errors import WALError
from repro.storage import RecordType, WriteAheadLog


def test_lsns_dense_from_one():
    wal = WriteAheadLog()
    r1 = wal.append(RecordType.BEGIN, "T1")
    r2 = wal.append(RecordType.UPDATE, "T1", key="x", before=0, after=1)
    assert (r1.lsn, r2.lsn) == (1, 2)
    assert len(wal) == 2


def test_record_at_bounds():
    wal = WriteAheadLog()
    wal.append(RecordType.BEGIN, "T1")
    assert wal.record_at(1).record_type is RecordType.BEGIN
    with pytest.raises(WALError):
        wal.record_at(0)
    with pytest.raises(WALError):
        wal.record_at(2)


def test_prev_lsn_chains_per_transaction():
    wal = WriteAheadLog()
    wal.append(RecordType.BEGIN, "T1")
    wal.append(RecordType.BEGIN, "T2")
    r3 = wal.append(RecordType.UPDATE, "T1", key="x", before=0, after=1)
    assert r3.prev_lsn == 1


def test_records_for_returns_chain_oldest_first():
    wal = WriteAheadLog()
    wal.append(RecordType.BEGIN, "T1")
    wal.append(RecordType.UPDATE, "T2", key="y")
    wal.append(RecordType.UPDATE, "T1", key="x", before=0, after=1)
    wal.append(RecordType.COMMIT, "T1")
    types = [r.record_type for r in wal.records_for("T1")]
    assert types == [RecordType.BEGIN, RecordType.UPDATE, RecordType.COMMIT]


def test_updates_for_filters_update_records():
    wal = WriteAheadLog()
    wal.append(RecordType.BEGIN, "T1")
    wal.append(RecordType.UPDATE, "T1", key="a", before=1, after=2)
    wal.append(RecordType.UPDATE, "T1", key="b", before=3, after=4)
    wal.append(RecordType.COMMIT, "T1")
    updates = wal.updates_for("T1")
    assert [(r.key, r.before, r.after) for r in updates] == [
        ("a", 1, 2), ("b", 3, 4)
    ]


def test_status_of_progression():
    wal = WriteAheadLog()
    assert wal.status_of("T1") is None
    wal.append(RecordType.BEGIN, "T1")
    assert wal.status_of("T1") is RecordType.BEGIN
    wal.append(RecordType.PREPARE, "T1")
    assert wal.status_of("T1") is RecordType.PREPARE
    wal.append(RecordType.LOCAL_COMMIT, "T1")
    assert wal.status_of("T1") is RecordType.LOCAL_COMMIT
    wal.append(RecordType.COMMIT, "T1")
    assert wal.status_of("T1") is RecordType.COMMIT


def test_forced_writes_counter():
    wal = WriteAheadLog()
    wal.append(RecordType.BEGIN, "T1")
    wal.append(RecordType.PREPARE, "T1", force=True)
    wal.append(RecordType.COMMIT, "T1", force=True)
    assert wal.forced_writes == 2


def test_payload_preserved():
    wal = WriteAheadLog()
    r = wal.append(RecordType.DECIDE, "T1", decision="ABORT", sites=["S1"])
    assert r.payload == {"decision": "ABORT", "sites": ["S1"]}


def test_clone_replays_alike_and_keeps_its_appends_to_itself():
    import copy

    from repro.storage.kvstore import KVStore
    from repro.storage.recovery import RecoveryManager

    wal = WriteAheadLog("S1")
    wal.append(RecordType.BEGIN, "T0")
    wal.append(RecordType.COMMIT, "T0", force=True)
    wal.checkpoint({"a": 1, "b": 2})  # a non-zero base, as after a long run
    wal.append(RecordType.BEGIN, "T1")
    wal.append(RecordType.UPDATE, "T1", key="a", before=1, after=5)
    wal.append(RecordType.COMMIT, "T1", force=True)
    wal.append(RecordType.BEGIN, "T2")  # a loser: restart aborts it
    wal.append(RecordType.UPDATE, "T2", key="b", before=2, after=9)
    before = [repr(record) for record in wal]

    def replay(log):
        store = KVStore(site_id="replay")
        report = RecoveryManager(store, log).restart()
        return report, dict(store.items()), [repr(r) for r in log]

    # the deep copy the recovery oracle used to take is the reference
    assert replay(wal.clone()) == replay(copy.deepcopy(wal))
    assert len(replay(wal.clone())[2]) > len(before)  # the ABORT for T2
    assert [repr(record) for record in wal] == before
    assert wal.status_of("T2") is RecordType.BEGIN
