"""File-backed WAL: durability, reload, and torn-tail recovery.

The networked runtime writes each record as ``length + crc32 + json``.
``kill -9`` can land mid-write, leaving a partial final frame — the
record was never acknowledged as durable, so reopening the log must
detect the torn tail (short frame or checksum mismatch), truncate it,
and recover everything before it.  Crashing recovery on a torn tail
would turn every unlucky kill into a permanently dead site.
"""

import json
import os
import struct
import zlib

import pytest

from repro.errors import WALError
from repro.storage.recovery import RecoveryManager
from repro.storage.kvstore import TOMBSTONE, KVStore
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn.operations import SemanticOp


def wal_at(tmp_path, name="site.wal"):
    return WriteAheadLog("S1", path=str(tmp_path / name))


def append_committed_txn(wal, txn_id="T1", key="k0", after=7):
    wal.append(RecordType.BEGIN, txn_id)
    wal.append(RecordType.UPDATE, txn_id, key=key, before=0, after=after)
    wal.append(RecordType.COMMIT, txn_id, force=True)


class TestFileBacking:
    def test_records_survive_close_and_reopen(self, tmp_path):
        wal = wal_at(tmp_path)
        append_committed_txn(wal)
        wal.close()

        reopened = wal_at(tmp_path)
        assert len(reopened) == 3
        types = [r.record_type for r in reopened]
        assert types == [
            RecordType.BEGIN, RecordType.UPDATE, RecordType.COMMIT,
        ]
        assert reopened.torn_records_truncated == 0

    def test_lsns_continue_after_reload(self, tmp_path):
        wal = wal_at(tmp_path)
        append_committed_txn(wal)
        last = wal.record_at(len(wal)).lsn
        wal.close()

        reopened = wal_at(tmp_path)
        record = reopened.append(RecordType.BEGIN, "T2")
        assert record.lsn == last + 1

    def test_update_payload_roundtrips(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.append(RecordType.BEGIN, "T1")
        wal.append(
            RecordType.UPDATE, "T1", key="k3",
            before={"n": 1}, after={"n": 2}, force=True,
        )
        wal.close()

        record = wal_at(tmp_path).record_at(2)
        assert record.key == "k3"
        assert record.before == {"n": 1}
        assert record.after == {"n": 2}
        assert record.prev_lsn == 1

    def test_tombstone_images_roundtrip(self, tmp_path):
        # A write to an absent key logs TOMBSTONE as its before-image, a
        # delete as its after-image; both must reach the file and come
        # back as TOMBSTONE, not fail to encode or return as a value.
        wal = wal_at(tmp_path)
        wal.append(RecordType.BEGIN, "T1")
        wal.append(
            RecordType.UPDATE, "T1", key="k9", before=TOMBSTONE, after=5,
        )
        wal.append(
            RecordType.UPDATE, "T1", key="k9", before=5, after=TOMBSTONE,
            force=True,
        )
        wal.close()

        inserted, deleted = wal_at(tmp_path).updates_for("T1")
        assert inserted.before is TOMBSTONE and inserted.after == 5
        assert deleted.before == 5 and deleted.after is TOMBSTONE

    def test_semantic_op_roundtrips(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.append(RecordType.BEGIN, "T1")
        wal.append(
            RecordType.UPDATE, "T1", key="k0", before=100, after=102,
            op=SemanticOp("deposit", "k0", {"amount": 2}),
        )
        wal.append(
            RecordType.UPDATE, "T1", key="k0", before=102, after=7,
            force=True,
        )
        wal.close()

        semantic, generic = wal_at(tmp_path).updates_for("T1")
        assert semantic.op == SemanticOp("deposit", "k0", {"amount": 2})
        assert generic.op is None

    def test_frame_without_op_is_a_generic_write(self, tmp_path):
        # Pin the older format: an UPDATE frame with no "op" field (all a
        # log written before the field existed can hold) still decodes,
        # as a generic write undone by its before-image.
        path = tmp_path / "site.wal"
        frames = b""
        for record in (
            {"lsn": 1, "type": "BEGIN", "txn": "T1", "key": None,
             "before": None, "after": None, "prev": None, "payload": {}},
            {"lsn": 2, "type": "UPDATE", "txn": "T1", "key": "k0",
             "before": 100, "after": 102, "prev": 1, "payload": {}},
        ):
            payload = json.dumps(record).encode()
            frames += struct.pack(">II", len(payload), zlib.crc32(payload))
            frames += payload
        path.write_bytes(frames)

        (update,) = wal_at(tmp_path).updates_for("T1")
        assert (update.op, update.before, update.after) == (None, 100, 102)

    def test_malformed_op_field_raises(self, tmp_path):
        path = tmp_path / "site.wal"
        payload = json.dumps(
            {"lsn": 1, "type": "UPDATE", "txn": "T1", "key": "k0",
             "before": 1, "after": 2, "prev": None, "payload": {}, "op": 5},
        ).encode()
        path.write_bytes(
            struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(WALError):
            wal_at(tmp_path)

    def test_checkpoint_leaves_the_file_whole(self, tmp_path):
        path = tmp_path / "site.wal"
        wal = wal_at(tmp_path)
        append_committed_txn(wal)
        assert wal.checkpoint({"k0": 7}) == ["T1"]
        assert len(wal) == 1  # memory keeps the checkpoint
        wal.close()

        # The file keeps every record; replaying it drops in memory what
        # the checkpoint dropped, and rebuilds the settled-id table.
        reopened = wal_at(tmp_path)
        assert [r.record_type for r in reopened] == [RecordType.CHECKPOINT]
        assert reopened.last_checkpoint().payload["snapshot"] == {"k0": 7}
        assert reopened.settled == {"T1": True}
        assert reopened.appended == 4
        assert path.stat().st_size > 0


class TestTornTail:
    def assert_recovers_three_records(self, tmp_path):
        reopened = wal_at(tmp_path)
        assert len(reopened) == 3
        assert reopened.torn_records_truncated == 1
        # The log is writable again after truncation: the next record
        # lands where the torn frame was and survives a further reload.
        reopened.append(RecordType.ABORT, "T2", force=True)
        reopened.close()
        final = wal_at(tmp_path)
        assert len(final) == 4
        assert final.torn_records_truncated == 0
        return final

    def test_partial_final_frame_is_truncated(self, tmp_path):
        path = tmp_path / "site.wal"
        wal = wal_at(tmp_path)
        append_committed_txn(wal)
        wal.append(RecordType.BEGIN, "T2", force=True)
        wal.close()

        # Tear the last frame: keep its header plus half the payload,
        # as if the process died mid-write().
        good = path.read_bytes()
        torn_at = len(good) - 10
        path.write_bytes(good[:torn_at])

        self.assert_recovers_three_records(tmp_path)
        # Truncation really removed the torn bytes from disk.
        assert b"T2" in path.read_bytes()  # the appended ABORT record

    def test_partial_header_is_truncated(self, tmp_path):
        path = tmp_path / "site.wal"
        wal = wal_at(tmp_path)
        append_committed_txn(wal)
        wal.close()

        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")  # 2 of 8 header bytes

        self.assert_recovers_three_records(tmp_path)

    def test_corrupt_checksum_is_truncated(self, tmp_path):
        path = tmp_path / "site.wal"
        wal = wal_at(tmp_path)
        append_committed_txn(wal)
        wal.append(RecordType.BEGIN, "T2", force=True)
        wal.close()

        # Flip one payload byte of the final frame; its CRC no longer
        # matches, so the frame must be treated as torn.
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))

        self.assert_recovers_three_records(tmp_path)

    def test_corrupt_interior_record_is_a_hard_error(self, tmp_path):
        # A bad CRC *before* intact frames is not a torn tail — it is
        # corruption of acknowledged-durable data.  Replay stops at the
        # bad frame, and the later intact frames make the LSN chain
        # non-contiguous... unless they happen to re-align.  The replay
        # loop treats the first bad frame as the end of the log: the
        # records after it are lost, which is the standard ARIES-style
        # contract (nothing after the first hole is trusted).
        path = tmp_path / "site.wal"
        wal = wal_at(tmp_path)
        append_committed_txn(wal)
        wal.close()

        data = bytearray(path.read_bytes())
        # Corrupt the first frame's payload.
        data[struct.calcsize(">II") + 2] ^= 0xFF
        path.write_bytes(bytes(data))

        reopened = wal_at(tmp_path)
        assert len(reopened) == 0
        assert reopened.torn_records_truncated >= 1

    def test_kill_nine_torn_tail_recovers_store(self, tmp_path):
        # End-to-end: committed txn, then a torn in-flight record; the
        # recovery manager must redo the committed update and ignore the
        # torn frame entirely.
        wal = wal_at(tmp_path)
        append_committed_txn(wal, after=42)
        wal.append(RecordType.BEGIN, "T2", force=True)
        wal.close()

        path = tmp_path / "site.wal"
        good = path.read_bytes()
        path.write_bytes(good[:-5])

        reopened = wal_at(tmp_path)
        store = KVStore("S1")
        report = RecoveryManager(store, reopened).restart()
        assert store.get("k0") == 42
        assert "T1" in report.redone
        assert reopened.torn_records_truncated == 1

    def test_frame_checksum_uses_crc32(self, tmp_path):
        # Pin the on-disk format: 4-byte length, 4-byte crc32, JSON.
        path = tmp_path / "site.wal"
        wal = wal_at(tmp_path)
        wal.append(RecordType.BEGIN, "T1", force=True)
        wal.close()

        data = path.read_bytes()
        length, checksum = struct.unpack(">II", data[:8])
        payload = data[8:8 + length]
        assert zlib.crc32(payload) == checksum
        assert len(data) == 8 + length


class TestInMemoryUnchanged:
    def test_no_path_means_no_file(self, tmp_path):
        wal = WriteAheadLog("S1")
        append_committed_txn(wal)
        assert wal.path is None
        assert os.listdir(tmp_path) == []
        wal.close()  # no-op

    def test_undecodable_intact_frame_raises(self, tmp_path):
        # An intact frame (good CRC) whose JSON is not a record is real
        # corruption, not a torn tail: fail loudly.
        path = tmp_path / "site.wal"
        payload = b'{"not": "a record"}'
        path.write_bytes(
            struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(WALError):
            wal_at(tmp_path)
