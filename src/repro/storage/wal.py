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

Fuzzy checkpoints (:meth:`WriteAheadLog.checkpoint`) bound a live log:
an unforced ``CHECKPOINT`` record carries a transaction-consistent store
snapshot, the *low-water* LSN below which no record is still needed, and
the ids of the transactions whose records it drops (id → committed).  The
in-memory log then forgets everything below the low-water; what a reader
still asks of a forgotten id — its outcome, the stamp of a message that
reveals it, whether the id is taken — is answered from
:attr:`WriteAheadLog.settled`.

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
from repro.ids import is_coordinator_id
from repro.storage.kvstore import TOMBSTONE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (txn imports us)
    from repro.txn.operations import SemanticOp

#: on-disk frame header: payload length + CRC32 of the payload
_FRAME_HEADER = struct.Struct(">II")

#: compact, key-sorted JSON: the one encoder of WAL frames and wire bodies
#: (``json.dumps`` with these options builds an encoder per call)
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"),
).encode


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

#: the records that settle their id: a transaction's COMMIT or ABORT, a
#: coordination's COORD_END (every site acknowledged its decision).  Any
#: other record of an id opens it again; a checkpoint keeps every record
#: from the first one of the oldest open id on.
_SETTLING = (RecordType.COMMIT, RecordType.ABORT, RecordType.COORD_END)

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
        data["op"] = [record.op.name, record.op.params.to_dict()]
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
        #: open ids (no settling record since their first record) → the
        #: LSN that opened them; insertion order is LSN order, so the
        #: first entry is the oldest
        self._open: dict[str, int] = {}
        #: id → committed, for every id a checkpoint dropped records of
        #: (a coordinator's: its decision) — the settled-id table
        self.settled: dict[str, bool] = {}
        #: the latest CHECKPOINT record (restart starts from it)
        self._checkpoint: LogRecord | None = None
        #: fuzzy checkpoints taken by this log object
        self.checkpoints = 0
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
        self._track(record)
        if record.record_type is RecordType.CHECKPOINT:
            # The file keeps every record; memory keeps what the
            # checkpoint kept when it was taken.
            self.settled.update(record.payload.get("settled", ()))
            self._truncate(record.payload.get("low_water", record.lsn))

    def _persist(self, record: LogRecord, force: bool) -> None:
        payload = canonical_json(_record_to_json(record)).encode("utf-8")
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
        self._track(record)
        if force:
            self.forced_writes += 1
            if not self.group_commit:
                self.durable_lsn = lsn
        if self._file is not None:
            self._persist(record, force)
        return record

    def _track(self, record: LogRecord) -> None:
        """Open or settle ``record``'s id (see :data:`_SETTLING`)."""
        kind = record.record_type
        if kind in _SETTLING:
            self._open.pop(record.txn_id, None)
        elif kind is RecordType.CHECKPOINT:
            self._checkpoint = record
        elif record.txn_id not in self._open:
            self._open[record.txn_id] = record.lsn

    def cover(self, txn_id: str) -> "Cover":
        """The stamp of a message revealing ``txn_id``'s latest record here
        (:attr:`~repro.net.message.Message.covers`); for an id whose
        records a checkpoint dropped, its :meth:`settled_record`."""
        lsn = self._last_lsn.get(txn_id)
        if lsn is None:
            return (self, self.settled_record(txn_id))
        return (self, self._records[lsn - 1 - self._base])

    def settled_record(self, txn_id: str) -> LogRecord | None:
        """A stand-in for the dropped outcome record of a settled id, or
        None when :attr:`settled` does not hold it.

        A COMMIT or ABORT (a coordinator's: a DECIDE carrying its
        decision) at the last dropped LSN: a checkpoint drops only durable
        records, so the stand-in is durable and covers what the dropped
        record covered.
        """
        committed = self.settled.get(txn_id)
        if committed is None:
            return None
        if is_coordinator_id(txn_id):
            return LogRecord(
                self._base, RecordType.DECIDE, txn_id,
                payload={"decision": "COMMIT" if committed else "ABORT"},
            )
        return LogRecord(
            self._base,
            RecordType.COMMIT if committed else RecordType.ABORT, txn_id,
        )

    def knows(self, txn_id: str) -> bool:
        """True if ``txn_id`` has a record here or was settled here."""
        return txn_id in self._last_lsn or txn_id in self.settled

    def ended(self, txn_id: str) -> bool:
        """True if ``txn_id`` is known here and its latest record settles
        it (a ``COMMIT`` or ``ABORT``; a coordinator's ``COORD_END``)."""
        return txn_id not in self._open and self.knows(txn_id)

    def forgot(self, txn_id: str) -> bool:
        """True if a checkpoint dropped every record of ``txn_id``."""
        return txn_id in self.settled and txn_id not in self._last_lsn

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
        twin._open = dict(self._open)
        twin.settled = dict(self.settled)
        twin._checkpoint = self._checkpoint
        twin.durable_lsn = self.durable_lsn
        return twin

    # -- reading -------------------------------------------------------------------

    def __len__(self) -> int:
        """Records retained in memory (a checkpoint drops the rest)."""
        return len(self._records)

    @property
    def appended(self) -> int:
        """Records ever appended to this log (its last LSN)."""
        return self._next_lsn - 1

    @property
    def low_water(self) -> int:
        """The first retained LSN."""
        return self._base + 1

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

    def _next_low_water(self) -> int:
        """The low-water a checkpoint taken now would keep from: the LSN
        that opened the oldest open id, and never past a record that is
        not yet durable (a dropped record's stand-in stamps must hold)."""
        low = self.durable_lsn + 1
        for first in self._open.values():
            return min(first, low)
        return low

    def wants_checkpoint(self, snapshot_keys: int) -> bool:
        """True when a checkpoint would drop more records than it keeps
        plus the keys its snapshot carries — so its cost amortizes to
        O(1) per record without a tuned period."""
        low = self._next_low_water()
        return low - 1 - self._base > self._next_lsn - low + snapshot_keys

    def checkpoint(self, snapshot: dict[str, Any]) -> list[str]:
        """Take a fuzzy checkpoint of ``snapshot`` (the live store); returns
        the ids whose every record it dropped.

        Appends an unforced CHECKPOINT record carrying the snapshot with
        each open writer's keys set back to the before-image of the first
        open update (strict 2PL makes that the committed value: restart
        redoes the winners from the low-water on), the low-water LSN, and
        the outcomes of the ids it settles; then drops every record below
        the low-water from memory.  A backing file keeps them all.
        """
        low = self._next_low_water()
        keep = low - 1 - self._base
        snapshot = dict(snapshot)
        reset: set[str] = set()
        for record in self._records[keep:]:
            if (
                record.record_type is RecordType.UPDATE
                and record.txn_id in self._open
                and record.key not in reset
            ):
                reset.add(record.key)
                if record.before is TOMBSTONE:
                    snapshot.pop(record.key, None)
                else:
                    snapshot[record.key] = record.before
        settles: dict[str, bool] = {}
        for record in self._records[:keep]:
            kind = record.record_type
            if kind is RecordType.COMMIT or kind is RecordType.ABORT:
                settles[record.txn_id] = kind is RecordType.COMMIT
            elif kind is RecordType.DECIDE:
                settles[record.txn_id] = record.payload["decision"] == "COMMIT"
            elif kind is RecordType.COORD_END:
                # the decision of its DECIDE, dropped now or earlier; with
                # none, an abort presumed at spawn time
                settles.setdefault(
                    record.txn_id, self.settled.get(record.txn_id, False),
                )
        self.append(
            RecordType.CHECKPOINT, "__checkpoint__",
            snapshot=snapshot, settled=settles, low_water=low,
        )
        self.settled.update(settles)
        self._truncate(low)
        self.checkpoints += 1
        return [txn for txn in settles if txn not in self._last_lsn]

    def _truncate(self, low_water: int) -> None:
        """Drop every in-memory record below ``low_water``."""
        keep = low_water - 1 - self._base
        if keep <= 0:
            return
        del self._records[:keep]
        self._base = low_water - 1
        self._last_lsn = {
            txn: lsn for txn, lsn in self._last_lsn.items() if lsn >= low_water
        }

    def last_checkpoint(self) -> LogRecord | None:
        """The most recent CHECKPOINT record, or None."""
        return self._checkpoint

    def records_for(self, txn_id: str) -> list[LogRecord]:
        """All records of one transaction, oldest first."""
        chain: list[LogRecord] = []
        lsn = self._last_lsn.get(txn_id)
        while lsn is not None and lsn > self._base:
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
        committed = self.settled.get(txn_id)
        if committed is not None:
            seen.add(RecordType.COMMIT if committed else RecordType.ABORT)
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
