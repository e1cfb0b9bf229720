"""Wire format of the networked runtime: length-prefixed JSON frames.

Every frame is a 4-byte big-endian payload length followed by a UTF-8 JSON
object.  These frame kinds travel on the same connection:

* ``{"kind": "msg", ...}`` — a serialized protocol
  :class:`~repro.net.message.Message`.  The payload's typed values
  (operation lists, :class:`~repro.txn.transaction.VotePolicy`) round-trip
  through tagged JSON, so a daemon rebuilds exactly the object the
  simulation would have delivered.
* ``{"kind": "admin", ...}`` — daemon control traffic (status snapshots,
  orderly shutdown) used by ``repro client --status`` and the integration
  tests.  Admin frames are *not* part of the protocol vocabulary — they
  never reach the Participant's dispatch loop, so the ``MsgType``
  message-count claims (CLAIM-MSG) are unaffected.
* ``{"kind": "submit", "spec": ..., "commit": ...}`` — a client hands
  one global transaction (:func:`spec_to_json`) and the fields of its
  :class:`~repro.commit.base.CommitConfig` that differ from the defaults
  to the daemon of the transaction's first site, which coordinates it
  and answers with a
  ``{"kind": "told", "txn": ..., "outcome": ...}`` frame.  Like admin
  frames, neither is protocol vocabulary.
* ``{"kind": "batch", "frames": [...]}`` — several ``msg`` bodies
  coalesced into one frame (one length prefix, one syscall at each end).
  The envelope is strictly an optimization: :func:`encode_batch` emits a
  lone message as a plain ``msg`` frame, so a peer that predates the
  envelope still parses everything a lightly loaded sender produces, and
  :func:`unbatch` maps any inbound body back to the flat message list.

The framing mirrors the WAL's on-disk format choice: explicit lengths make
torn frames detectable, and a reader never blocks past a frame boundary.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import fields
from typing import Any

from repro.net.message import Message, MsgType
from repro.storage.wal import canonical_json
from repro.txn.operations import Op, ReadOp, SemanticOp, WriteOp
from repro.txn.transaction import (
    GlobalTxnSpec,
    SubtxnSpec,
    TxnOutcome,
    VotePolicy,
)

#: 4-byte big-endian payload length
_LEN = struct.Struct(">I")

#: refuse absurd frames before allocating (a corrupt peer, not a workload)
MAX_FRAME = 16 * 1024 * 1024


class WireError(ValueError):
    """A frame could not be decoded (truncated, oversized, or malformed)."""


# -- operations ---------------------------------------------------------------

def op_to_json(op: Op) -> dict[str, Any]:
    """Tagged JSON form of one operation."""
    if isinstance(op, ReadOp):
        return {"op": "read", "key": op.key}
    if isinstance(op, WriteOp):
        return {"op": "write", "key": op.key, "value": op.value}
    if isinstance(op, SemanticOp):
        return {
            "op": "semantic", "name": op.name, "key": op.key,
            "params": op.params.to_dict(),
        }
    raise WireError(f"unserializable operation {op!r}")


def op_from_json(data: dict[str, Any]) -> Op:
    """Inverse of :func:`op_to_json`."""
    tag = data.get("op")
    if tag == "read":
        return ReadOp(key=data["key"])
    if tag == "write":
        return WriteOp(key=data["key"], value=data["value"])
    if tag == "semantic":
        return SemanticOp(
            name=data["name"], key=data["key"],
            params=data.get("params", {}),
        )
    raise WireError(f"unknown operation tag {tag!r}")


# -- payload values -----------------------------------------------------------

def _payload_to_json(payload: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in payload.items():
        if key == "ops":
            out[key] = [op_to_json(op) for op in value]
        elif isinstance(value, VotePolicy):
            out[key] = {"__vote_policy__": value.value}
        else:
            out[key] = value
    return out


def _payload_from_json(payload: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in payload.items():
        if key == "ops":
            out[key] = [op_from_json(item) for item in value]
        elif isinstance(value, dict) and "__vote_policy__" in value:
            out[key] = VotePolicy(value["__vote_policy__"])
        else:
            out[key] = value
    return out


# -- messages -----------------------------------------------------------------

def message_to_json(message: Message) -> dict[str, Any]:
    """JSON frame body of one protocol message."""
    return {
        "kind": "msg",
        "type": message.msg_type.value,
        "sender": message.sender,
        "recipient": message.recipient,
        "txn": message.txn_id,
        "payload": _payload_to_json(message.payload),
    }


def message_from_json(data: dict[str, Any]) -> Message:
    """Rebuild a protocol message from a frame body."""
    try:
        message = Message(
            msg_type=MsgType(data["type"]),
            sender=data["sender"],
            recipient=data["recipient"],
            txn_id=data["txn"],
            payload=_payload_from_json(data.get("payload", {})),
        )
        ids = (message.sender, message.recipient, message.txn_id)
        if not all(type(value) is str for value in ids):
            raise ValueError("sender, recipient and txn must be strings")
        return message
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        # whatever its shape, hostile JSON is a refused frame, not a crash
        raise WireError(f"malformed message frame: {exc}") from exc


# -- submitted transactions ---------------------------------------------------

#: the fields that cross the wire (the classes are slotted: no ``vars()``)
_SUBTXN_FIELDS = tuple(f.name for f in fields(SubtxnSpec))
_OUTCOME_FIELDS = tuple(f.name for f in fields(TxnOutcome))


def spec_to_json(spec: GlobalTxnSpec) -> dict[str, Any]:
    """JSON form of a global transaction, as a ``submit`` frame carries it."""
    return {
        "txn": spec.txn_id,
        "subtxns": [
            _payload_to_json({name: getattr(sub, name) for name in _SUBTXN_FIELDS})
            for sub in spec.subtxns
        ],
    }


def outcome_to_json(outcome: TxnOutcome) -> dict[str, Any]:
    """JSON form of an outcome, as a ``told`` frame carries it."""
    return {name: getattr(outcome, name) for name in _OUTCOME_FIELDS}


def outcome_from_json(data: dict[str, Any]) -> TxnOutcome:
    """Inverse of :func:`outcome_to_json`: an empty site list is the
    shared empty tuple again, as in an outcome the sim made."""
    outcome = TxnOutcome(**data)
    outcome.no_votes = outcome.no_votes or ()
    outcome.compensated_sites = outcome.compensated_sites or ()
    return outcome


def spec_from_json(data: Any) -> GlobalTxnSpec:
    """Inverse of :func:`spec_to_json`; a malformed spec is a WireError."""
    try:
        spec = GlobalTxnSpec(txn_id=data["txn"], subtxns=[
            SubtxnSpec(**_payload_from_json(sub)) for sub in data["subtxns"]
        ])
        if not spec.subtxns or not all(
            type(v) is str for v in (spec.txn_id, *spec.site_ids)
        ):
            raise ValueError("txn and sites must be strings, one site or more")
        return spec
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise WireError(f"malformed transaction spec: {exc}") from exc


# -- batching -----------------------------------------------------------------

#: keep batch frames comfortably under MAX_FRAME (payload sizes are
#: estimated from the member payloads, before envelope overhead)
_BATCH_BUDGET = MAX_FRAME // 2


def encode_batch(bodies: list[dict[str, Any]]) -> list[bytes]:
    """Encode message bodies into the fewest wire frames.

    One body stays a plain singleton frame (legacy peers parse it
    unchanged); several bodies share one ``batch`` envelope; a batch
    whose members approach ``MAX_FRAME`` is split across frames.  Each
    body is serialized once: the encoded members are spliced into the
    envelope, which is what ``sort_keys`` makes of
    ``{"kind": "batch", "frames": [...]}``.
    """
    frames: list[bytes] = []
    chunk: list[bytes] = []
    chunk_bytes = 0
    for body in bodies:
        member = _encode_body(body)
        if chunk and chunk_bytes + len(member) > _BATCH_BUDGET:
            frames.append(_encode_chunk(chunk))
            chunk, chunk_bytes = [], 0
        chunk.append(member)
        chunk_bytes += len(member)
    if chunk:
        frames.append(_encode_chunk(chunk))
    return frames


def _encode_chunk(chunk: list[bytes]) -> bytes:
    if len(chunk) == 1:
        return encode_frame(chunk[0])
    return encode_frame(
        b'{"frames":[' + b",".join(chunk) + b'],"kind":"batch"}'
    )


def unbatch(body: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten one inbound frame body into its message bodies.

    A non-batch body is its own singleton; a batch envelope yields its
    members in order.  Nesting is rejected — the sender never produces
    it, so seeing one means a corrupt or hostile peer.
    """
    if body.get("kind") != "batch":
        return [body]
    members = body.get("frames")
    if not isinstance(members, list):
        raise WireError("batch envelope without a frames list")
    for member in members:
        if not isinstance(member, dict) or "kind" not in member:
            raise WireError("batch member is not a tagged object")
        if member.get("kind") == "batch":
            raise WireError("nested batch envelope")
    return members


# -- framing ------------------------------------------------------------------

def _encode_body(body: dict[str, Any]) -> bytes:
    """Compact, key-sorted JSON (ASCII-only: one byte per character)."""
    return canonical_json(body).encode("utf-8")


def encode_frame(body: dict[str, Any] | bytes) -> bytes:
    """One wire frame: length prefix plus compact JSON.

    ``body`` may be JSON already encoded (:func:`encode_batch` splices
    its members), so every frame written anywhere is framed, checked and
    counted here.
    """
    payload = body if isinstance(body, bytes) else _encode_body(body)
    if len(payload) > MAX_FRAME:
        raise WireError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(payload)) + payload


def decode_frame(payload: bytes | bytearray) -> dict[str, Any]:
    """Decode one frame payload (the bytes after the length prefix)."""
    try:
        body = json.loads(payload)
    except ValueError as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(body, dict) or "kind" not in body:
        raise WireError("frame body is not a tagged object")
    return body


def split_frames(buffer: bytearray) -> list[dict[str, Any]]:
    """Consume every complete frame at the front of ``buffer``.

    A connection's receive path: whole frames are removed from the bytes
    read so far, decoded and flattened (:func:`unbatch`) into message
    bodies in arrival order; a torn tail stays for the next read.  A
    length over ``MAX_FRAME`` is refused from its header alone.
    """
    bodies: list[dict[str, Any]] = []
    offset, size = 0, len(buffer)
    while size - offset >= _LEN.size:
        (length,) = _LEN.unpack_from(buffer, offset)
        if length > MAX_FRAME:
            raise WireError(f"frame of {length} bytes exceeds MAX_FRAME")
        end = offset + _LEN.size + length
        if end > size:
            break
        bodies += unbatch(decode_frame(buffer[offset + _LEN.size:end]))
        offset = end
    del buffer[:offset]
    return bodies


async def read_frame(reader: Any) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; None on orderly EOF."""
    try:
        (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
        if length > MAX_FRAME:
            raise WireError(f"frame of {length} bytes exceeds MAX_FRAME")
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return decode_frame(payload)


async def write_frame(writer: Any, body: dict[str, Any]) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(body))
    await writer.drain()
