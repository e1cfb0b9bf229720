"""WAL frames and wire bodies come from one prebuilt encoder, and their
bytes are what ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
wrote before it."""

import json

import pytest

from repro.net.message import Message, MsgType
from repro.rt.wire import encode_batch, message_to_json
from repro.storage.wal import (
    LogRecord,
    RecordType,
    _record_to_json,
    canonical_json,
)
from repro.txn.operations import SemanticOp


def dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("record_type", list(RecordType))
def test_every_record_type_encodes_as_before(record_type):
    record = LogRecord(
        7, record_type, "T1", prev_lsn=3, key="k0", before=1, after="é",
        op=SemanticOp("deposit", "k0", {"amount": 2}),
        payload={"sites": ["S2", "S1"], "settled": {"T2": True}, "x": 1.5},
    )
    data = _record_to_json(record)
    assert canonical_json(data) == dumps(data)


def test_a_batch_of_messages_encodes_as_before():
    bodies = [
        message_to_json(Message(
            msg_type, "coord.T1", "S2", "T1",
            payload={"decision": "COMMIT", "ops": [], "z": None, "a": [1]},
        ))
        for msg_type in MsgType
    ]
    expected = [dumps(body).encode("utf-8") for body in bodies]
    framed = b"".join(encode_batch(bodies))
    for member in expected:
        assert member in framed
