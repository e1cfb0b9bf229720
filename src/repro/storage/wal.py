"""Write-ahead log with undo/redo records.

The log is the site's durable state: it survives crashes (the KV store does
not).  Records carry before- and after-images, so any update can be undone
(transaction rollback, the paper's "standard roll-back recovery") and
redone (crash restart).  An ``UPDATE`` made by a semantic operation also
names that forward operation (:attr:`LogRecord.op`), so the log is the one
undo record: :meth:`~repro.txn.local_manager.LocalTransactionManager.undo_program`
rebuilds a locally-committed transaction's *semantic* compensation from it,
before and after a crash alike.

2PC durability points are modeled faithfully with dedicated record types:
a participant force-writes ``PREPARE`` before voting YES, the coordinator
force-writes ``DECIDE`` before sending its decision, and ``COMMIT``/``ABORT``
mark local transaction termination.  The coordinator logs
``COORD_BEGIN`` / ``DECIDE`` / ``COORD_END`` to its first site's WAL
(:mod:`repro.commit.host`).  O2PC participants write
``LOCAL_COMMIT`` when they release locks early (Section 2), which is what a
recovering site uses to know compensation — not state-based undo — is the
only way to revoke the transaction.  A Paxos acceptor forces each change
of its tables as an ``ACCEPTOR`` record keyed by its own id, which site
recovery never reads (:mod:`repro.protocols.acceptor`).

File backing (the ``net`` backend): constructed with a ``path``, the log
appends every record to that file as a length-prefixed, CRC32-checked JSON
frame and ``fsync``\\ s on forced writes, so it survives ``kill -9`` of the
hosting daemon.  Reopening the same path replays the file; a torn or
corrupt final frame — the signature of a crash mid-append — is detected by
the length/checksum pair and truncated away (the record it belonged to was
never acknowledged as durable), matching what a real recovery pass does
with a torn tail.  In a frame, ``TOMBSTONE`` ("the key did not exist")
travels as the tagged value ``{"$tombstone": true}``, and a semantic
``UPDATE``'s operation as ``"op": [name, params]``; a frame without
``"op"`` is a generic write, which is all a frame written before the field
existed could say.
"""

from __future__ import annotations

import enum
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import WALError
from repro.storage.kvstore import TOMBSTONE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (txn imports us)
    from repro.txn.operations import SemanticOp

#: on-disk frame header: payload length + CRC32 of the payload
_FRAME_HEADER = struct.Struct(">II")


class RecordType(enum.Enum):
    """Kinds of log records."""

    BEGIN = "BEGIN"
    UPDATE = "UPDATE"
    #: participant is prepared (voted YES) — 2PC durability point
    PREPARE = "PREPARE"
    #: participant locally committed under O2PC (locks released early)
    LOCAL_COMMIT = "LOCAL_COMMIT"
    #: coordinator decision record
    DECIDE = "DECIDE"
    #: a coordinator began (payload: its sites)
    COORD_BEGIN = "COORD_BEGIN"
    #: every site acknowledged that coordinator's decision
    COORD_END = "COORD_END"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    #: compensation completed for the given transaction
    COMPENSATION = "COMPENSATION"
    CHECKPOINT = "CHECKPOINT"
    #: one change of a Paxos acceptor's tables (``txn_id``: the acceptor)
    ACCEPTOR = "ACCEPTOR"


#: the payload of every record appended without one (never mutated)
_NO_PAYLOAD: dict[str, Any] = {}

#: JSON stand-in for ``TOMBSTONE`` in a frame (a stored value equal to it
#: would read back as "absent")
_TOMBSTONE_JSON = {"$tombstone": True}


def _image_to_json(image: Any) -> Any:
    return _TOMBSTONE_JSON if image is TOMBSTONE else image


def _image_from_json(image: Any) -> Any:
    return TOMBSTONE if image == _TOMBSTONE_JSON else image


def _record_to_json(record: "LogRecord") -> dict[str, Any]:
    """JSON form of one record (values must be JSON-serializable)."""
    data: dict[str, Any] = {
        "lsn": record.lsn,
        "type": record.record_type.value,
        "txn": record.txn_id,
        "key": record.key,
        "before": _image_to_json(record.before),
        "after": _image_to_json(record.after),
        "prev": record.prev_lsn,
        "payload": record.payload,
    }
    if record.op is not None:
        data["op"] = [record.op.name, record.op.params]
    return data


def _record_from_json(data: dict[str, Any]) -> "LogRecord":
    """Inverse of :func:`_record_to_json`."""
    op = None
    if "op" in data:
        from repro.txn.operations import SemanticOp

        name, params = data["op"]
        op = SemanticOp(name=name, key=data["key"], params=params)
    return LogRecord(
        lsn=data["lsn"],
        record_type=RecordType(data["type"]),
        txn_id=data["txn"],
        key=data["key"],
        before=_image_from_json(data["before"]),
        after=_image_from_json(data["after"]),
        prev_lsn=data["prev"],
        payload=data["payload"],
        op=op,
    )


@dataclass(slots=True)
class LogRecord:
    """One entry in the write-ahead log."""

    lsn: int
    record_type: RecordType
    txn_id: str
    key: str | None = None
    before: Any = None
    after: Any = None
    #: LSN of this transaction's previous record (backward chain for undo)
    prev_lsn: int | None = None
    payload: dict[str, Any] = field(default_factory=dict)
    #: the forward semantic operation an ``UPDATE`` applied (None for a
    #: generic write) — what the undo program inverts
    op: "SemanticOp | None" = None

    def __repr__(self) -> str:
        core = f"LSN={self.lsn} {self.record_type.value} txn={self.txn_id}"
        if self.record_type is RecordType.UPDATE:
            core += f" key={self.key} {self.before!r}->{self.after!r}"
        return f"<{core}>"


class WriteAheadLog:
    """Append-only log for one site.

    The log also maintains the per-transaction backward chain (``prev_lsn``)
    and an index of each transaction's records so rollback does not scan the
    whole log.
    """

    def __init__(self, site_id: str = "site", path: str | None = None) -> None:
        self.site_id = site_id
        self._records: list[LogRecord] = []
        self._next_lsn = 1
        #: LSN of the first retained record minus one (grows on truncation)
        self._base = 0
        #: last LSN per transaction (head of the undo chain)
        self._last_lsn: dict[str, int] = {}
        #: force-write counter (metrics: 2PC forced log writes are the
        #: protocol's durability cost)
        self.forced_writes = 0
        #: actual ``fsync`` calls issued on the backing file; with group
        #: commit one fsync covers many force points, so fsyncs <
        #: forced_writes is the whole point of the optimization
        self.fsyncs = 0
        #: highest LSN known durable: a forced append advances it, or,
        #: under group commit, the :meth:`sync` that covers it (one
        #: sequential log, so every earlier record is durable with it)
        self.durable_lsn = 0
        #: group-commit mode: a forced append marks the log *sync-needed*
        #: instead of fsyncing inline; an external flusher (the daemon's
        #: :class:`~repro.rt.group_commit.GroupCommitFlusher`) later calls
        #: :meth:`sync` once for the whole group.  The durability contract
        #: shifts, it does not weaken: the host must not acknowledge a
        #: forced record (send the frame that reveals it) before the
        #: covering sync — the transport's write seam checks that.
        self.group_commit = False
        #: force points appended since the last fsync (group-commit mode)
        self._pending_forces = 0
        #: backing file (None = purely in-memory, the sim backend)
        self.path = path
        #: torn/corrupt trailing frames dropped when the file was opened
        self.torn_records_truncated = 0
        self._file: Any = None
        #: encoded frames not yet handed to the file object — unforced
        #: appends batch here and are written in one call at the next
        #: forced write (or close), which is exactly the durability a WAL
        #: promises: only forced records are guaranteed to survive a kill.
        self._write_buffer: list[bytes] = []
        if path is not None:
            self._open_file(path)

    # -- file backing ------------------------------------------------------------

    def _open_file(self, path: str) -> None:
        """Open (and replay) the backing file; truncate any torn tail."""
        if os.path.exists(path):
            good_bytes = self._replay_file(path)
            self._file = open(path, "r+b")
            self._file.seek(0, os.SEEK_END)
            if self._file.tell() > good_bytes:
                # A frame was half-written when the daemon died: the record
                # was never durable, so recovery discards it.
                self._file.truncate(good_bytes)
                self._file.seek(good_bytes)
                self._file.flush()
                os.fsync(self._file.fileno())
        else:
            self._file = open(path, "w+b")

    def _replay_file(self, path: str) -> int:
        """Rebuild in-memory state from ``path``; returns intact byte count."""
        offset = 0
        records: list[LogRecord] = []
        with open(path, "rb") as handle:
            data = handle.read()
        while offset < len(data):
            header = data[offset:offset + _FRAME_HEADER.size]
            if len(header) < _FRAME_HEADER.size:
                self.torn_records_truncated += 1
                break
            length, checksum = _FRAME_HEADER.unpack(header)
            payload = data[
                offset + _FRAME_HEADER.size:
                offset + _FRAME_HEADER.size + length
            ]
            if len(payload) < length or zlib.crc32(payload) != checksum:
                self.torn_records_truncated += 1
                break
            try:
                records.append(_record_from_json(json.loads(payload)))
            except (ValueError, KeyError, TypeError) as exc:
                raise WALError(
                    f"{path}: undecodable record at byte {offset}: {exc}"
                ) from exc
            offset += _FRAME_HEADER.size + length
        for record in records:
            self._install(record)
        return offset

    def _install(self, record: LogRecord) -> None:
        """Install one replayed record into the in-memory structures."""
        if not self._records:
            self._base = record.lsn - 1
        elif record.lsn != self._records[-1].lsn + 1:
            raise WALError(
                f"non-contiguous LSNs in {self.path}: "
                f"{self._records[-1].lsn} then {record.lsn}"
            )
        self._records.append(record)
        self._last_lsn[record.txn_id] = record.lsn
        self._next_lsn = record.lsn + 1
        # replayed from the file: on disk, so durable
        self.durable_lsn = record.lsn

    def _persist(self, record: LogRecord, force: bool) -> None:
        payload = json.dumps(
            _record_to_json(record), sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        self._write_buffer.append(
            _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        if force:
            if self.group_commit:
                self._pending_forces += 1
            else:
                self._flush_buffer()

    def _flush_buffer(self) -> None:
        """Write buffered frames in one call, then flush and fsync."""
        if self._write_buffer:
            self._file.write(b"".join(self._write_buffer))
            self._write_buffer.clear()
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._pending_forces = 0

    @property
    def needs_sync(self) -> bool:
        """True when deferred force points await their covering fsync."""
        return self._file is not None and self._pending_forces > 0

    def sync(self) -> int:
        """Flush every deferred force point in one fsync (group commit).

        Returns how many force points the fsync covered — the group size.
        """
        covered = self._pending_forces
        if self._file is not None and (covered or self._write_buffer):
            self._flush_buffer()
        self.durable_lsn = self._next_lsn - 1
        return covered

    def _rewrite_file(self) -> None:
        """Rewrite the backing file from the retained records (truncation)."""
        self._write_buffer.clear()
        self._file.seek(0)
        self._file.truncate(0)
        for record in self._records:
            self._persist(record, force=False)
        self._flush_buffer()

    def close(self) -> None:
        """Flush and close the backing file (no-op when in-memory)."""
        if self._file is not None:
            self._flush_buffer()
            self._file.close()
            self._file = None

    # -- append -----------------------------------------------------------------

    def append(
        self,
        record_type: RecordType,
        txn_id: str,
        key: str | None = None,
        before: Any = None,
        after: Any = None,
        force: bool = False,
        op: "SemanticOp | None" = None,
        **payload: Any,
    ) -> LogRecord:
        """Append a record; returns it.

        ``force=True`` is a forced (synchronous) log write: it makes the
        record durable (:attr:`durable_lsn`) at once, or, under group
        commit, at the next :meth:`sync`.
        """
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        record = LogRecord(
            lsn=lsn,
            record_type=record_type,
            txn_id=txn_id,
            key=key,
            before=before,
            after=after,
            prev_lsn=self._last_lsn.get(txn_id),
            # ``**payload`` is already a fresh dict; no defensive copy.  A
            # record never changes, so the payload-less ones share one.
            payload=payload or _NO_PAYLOAD,
            op=op,
        )
        self._records.append(record)
        self._last_lsn[txn_id] = lsn
        if force:
            self.forced_writes += 1
            if not self.group_commit:
                self.durable_lsn = lsn
        if self._file is not None:
            self._persist(record, force)
        return record

    def cover(self, txn_id: str) -> "Cover":
        """The stamp of a message revealing ``txn_id``'s latest record here
        (:attr:`~repro.net.message.Message.covers`)."""
        lsn = self._last_lsn.get(txn_id)
        if lsn is None:
            return (self, None)
        return (self, self._records[lsn - 1 - self._base])

    def clone(self) -> "WriteAheadLog":
        """An in-memory log holding the same records.

        The record objects are shared — appending never changes an
        earlier record — so whatever the clone's user appends (restart
        recovery's ABORT records for losers) stays out of this log.
        """
        twin = WriteAheadLog(self.site_id)
        twin._records = list(self._records)
        twin._next_lsn = self._next_lsn
        twin._base = self._base
        twin._last_lsn = dict(self._last_lsn)
        twin.durable_lsn = self.durable_lsn
        return twin

    # -- reading -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def record_at(self, lsn: int) -> LogRecord:
        """The record with the given LSN (dense; truncation shifts the base)."""
        index = lsn - 1 - self._base
        if not 0 <= index < len(self._records):
            raise WALError(f"no record with LSN {lsn}")
        record = self._records[index]
        if record.lsn != lsn:  # pragma: no cover - integrity guard
            raise WALError(f"log corrupted at LSN {lsn}")
        return record

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self, snapshot: dict[str, Any], active: list[str]) -> LogRecord:
        """Append a CHECKPOINT record carrying a store snapshot.

        ``active`` lists the transactions in flight at checkpoint time;
        truncation is only legal at a *quiescent* checkpoint (empty
        ``active``), because truncating under it would sever live undo
        chains.
        """
        return self.append(
            RecordType.CHECKPOINT, txn_id="__checkpoint__", force=True,
            snapshot=dict(snapshot), active=list(active),
        )

    def last_checkpoint(self) -> LogRecord | None:
        """The most recent CHECKPOINT record still in the log, or None."""
        for record in reversed(self._records):
            if record.record_type is RecordType.CHECKPOINT:
                return record
        return None

    def truncate_at_checkpoint(self) -> int:
        """Drop every record before the latest quiescent checkpoint.

        Returns the number of records dropped.  Raises
        :class:`~repro.errors.WALError` if there is no checkpoint or the
        latest one was taken with transactions in flight (their undo
        chains would be severed).
        """
        checkpoint = self.last_checkpoint()
        if checkpoint is None:
            raise WALError("no checkpoint to truncate at")
        if checkpoint.payload.get("active"):
            raise WALError(
                "latest checkpoint is not quiescent: "
                f"{checkpoint.payload['active']}"
            )
        index = checkpoint.lsn - 1 - self._base
        dropped = self._records[:index]
        self._records = self._records[index:]
        self._base = checkpoint.lsn - 1
        # Per-transaction chains of dropped (terminated) transactions are
        # gone; purge stale heads so records_for() stops at the cut.
        dropped_lsns = {record.lsn for record in dropped}
        self._last_lsn = {
            txn: lsn for txn, lsn in self._last_lsn.items()
            if lsn not in dropped_lsns
        }
        for record in self._records:
            if record.prev_lsn is not None and record.prev_lsn <= self._base:
                record.prev_lsn = None
        if self._file is not None:
            self._rewrite_file()
        return len(dropped)

    def records_for(self, txn_id: str) -> list[LogRecord]:
        """All records of one transaction, oldest first."""
        chain: list[LogRecord] = []
        lsn = self._last_lsn.get(txn_id)
        while lsn is not None:
            record = self.record_at(lsn)
            chain.append(record)
            lsn = record.prev_lsn
        chain.reverse()
        return chain

    def updates_for(self, txn_id: str) -> list[LogRecord]:
        """The UPDATE records of ``txn_id``'s latest attempt, oldest first.

        A retried id (a local transaction, a compensation) begins again;
        its earlier attempts' updates were undone by their own aborts.
        """
        updates: list[LogRecord] = []
        for record in reversed(self.records_for(txn_id)):
            if record.record_type is RecordType.BEGIN:
                break
            if record.record_type is RecordType.UPDATE:
                updates.append(record)
        return updates[::-1]

    def status_of(self, txn_id: str) -> RecordType | None:
        """The most decisive record type logged for ``txn_id``.

        Returns COMMIT/ABORT if terminated, else LOCAL_COMMIT if locally
        committed, else PREPARE if prepared, else BEGIN if started, else
        None if unknown at this site.
        """
        seen: set[RecordType] = {
            r.record_type for r in self.records_for(txn_id)
        }
        for decisive in (
            RecordType.COMMIT,
            RecordType.ABORT,
            RecordType.LOCAL_COMMIT,
            RecordType.PREPARE,
            RecordType.BEGIN,
        ):
            if decisive in seen:
                return decisive
        return None


#: a message's stamp: the sender's log and the record that covers the
#: message, or None when the log holds nothing for its transaction
Cover = tuple[WriteAheadLog, "LogRecord | None"]
