"""Unit tests for operation helpers."""

import copy
import pickle
import sys
from collections.abc import Mapping

import pytest

from repro.compensation.actions import standard_registry
from repro.net.message import Message, MsgType
from repro.rt import wire
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn import (
    GlobalTxnSpec,
    ReadOp,
    SemanticOp,
    SubtxnSpec,
    VotePolicy,
    WriteOp,
)
from repro.txn.operations import NO_PARAMS, Params


def test_op_reprs_are_compact():
    assert repr(ReadOp("x")) == "r[x]"
    assert repr(WriteOp("x", 5)) == "w[x=5]"
    assert repr(SemanticOp("deposit", "x", {"amount": 5})) == "deposit[x](amount=5)"


def test_read_and_write_ops_hashable_and_equal():
    assert ReadOp("x") == ReadOp("x")
    assert {WriteOp("x", 1), WriteOp("x", 1)} == {WriteOp("x", 1)}


def test_semantic_op_hashable_with_unhashable_params():
    # Regression: hashing used to build a tuple of raw param values, which
    # raised TypeError for list/dict-valued params (e.g. insert's value).
    a = SemanticOp("insert", "row", {"value": {"name": "alice", "tags": [1, 2]}})
    b = SemanticOp("insert", "row", {"value": {"name": "alice", "tags": [1, 2]}})
    assert hash(a) == hash(b)
    assert a == b
    assert len({a, b}) == 1


def test_semantic_op_hash_respects_equality():
    # equal ops hash equal regardless of param insertion order
    a = SemanticOp("deposit", "x", {"amount": 1, "memo": "m"})
    b = SemanticOp("deposit", "x", {"memo": "m", "amount": 1})
    assert a == b
    assert hash(a) == hash(b)
    # and distinct params distinguish
    c = SemanticOp("deposit", "x", {"amount": 2, "memo": "m"})
    assert a != c


def test_semantic_op_hash_agrees_with_equality_across_numeric_types():
    # 1 == 1.0, so the ops are equal and a set must keep one of them.
    a = SemanticOp("deposit", "k", {"amount": 1})
    b = SemanticOp("deposit", "k", {"amount": 1.0})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_semantic_op_hash_agrees_with_equality_across_hashability():
    # frozenset({1}) == {1}, but only the first is hashable: the ops are
    # equal, so they must hash alike and a set must keep one of them.
    a = SemanticOp("insert", "k", {"value": frozenset({1})})
    b = SemanticOp("insert", "k", {"value": {1}})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# -- compact parameters -------------------------------------------------------

def test_params_read_like_the_dict_they_were_built_from():
    original = {"count": 2, "note": "x"}
    op = SemanticOp("reserve", "k", original)
    assert isinstance(op.params, Params)
    assert isinstance(op.params, Mapping)
    assert op.params == original and original == op.params
    assert not op.params != original
    assert op.params != {"count": 3, "note": "x"}
    assert dict(op.params) == original
    assert op.params.to_dict() == original
    assert op.params["count"] == 2 and op.params.get("note") == "x"
    assert op.params.get("missing", 9) == 9
    with pytest.raises(KeyError):
        op.params["missing"]
    assert "count" in op.params and "x" not in op.params
    assert list(op.params) == ["count", "note"]
    assert list(op.params.items()) == [("count", 2), ("note", "x")]
    assert len(op.params) == 2

    def kwargs(**kw):
        return kw

    assert kwargs(**op.params) == original


def test_params_skip_a_value_equal_to_a_key():
    params = Params.of({"a": "b", "b": "a"})
    assert params["a"] == "b" and params["b"] == "a"


def test_params_are_compact_and_shared_when_empty():
    assert sys.getsizeof(Params.of({"amount": 5})) <= 64
    assert SemanticOp("increment", "k").params is NO_PARAMS
    assert SemanticOp("increment", "k", {}).params is NO_PARAMS
    params = Params.of({"amount": 5})
    assert Params.of(params) is params
    assert SemanticOp("deposit", "k", params).params is params


def test_params_survive_pickle_and_copy():
    op = SemanticOp("insert", "row", {"value": {"tags": [1, 2]}, "at": 0})
    for clone in (
        pickle.loads(pickle.dumps(op)), copy.copy(op), copy.deepcopy(op),
    ):
        assert clone == op
        assert type(clone.params) is Params
        assert clone.params["value"] == {"tags": [1, 2]}


def test_unhashable_insert_payload():
    payload = {"name": "alice", "tags": [1, 2]}
    op = SemanticOp("insert", "row", {"value": payload})
    assert op.params == {"value": payload}
    assert op.params["value"] is payload
    assert dict(op.params) == {"value": payload}
    assert hash(op) == hash(SemanticOp("insert", "row", {"value": dict(payload)}))
    with pytest.raises(TypeError):
        hash(op.params)


def test_registry_applies_and_inverts_compact_params():
    registry = standard_registry()
    op = SemanticOp("deposit", "k", {"amount": 5})
    assert registry.apply(op, 10) == 15
    inverse = registry.invert(op, 10)
    assert inverse == SemanticOp("withdraw", "k", {"amount": 5})
    assert registry.apply(inverse, 15) == 10


# -- encodings: the bytes on disk and on the wire do not change ----------------

#: frames a WAL wrote before parameters were compact
GOLDEN_WAL = (
    b'\x00\x00\x00|\x07!\xfb\xa5{"after":12,"before":5,"key":"k0","lsn":1,'
    b'"op":["deposit",{"amount":7}],"payload":{},"prev":null,"txn":"T1",'
    b'"type":"UPDATE"}'
    b'\x00\x00\x00\x99\x85\xe4\xe7Q{"after":{"a":0,"b":[1,2]},"before":null,'
    b'"key":"k1","lsn":2,"op":["insert",{"value":{"a":0,"b":[1,2]}}],'
    b'"payload":{},"prev":1,"txn":"T1","type":"UPDATE"}'
    b'\x00\x00\x00p\xfaA=\xd7{"after":4,"before":3,"key":"k2","lsn":3,'
    b'"op":["increment",{}],"payload":{},"prev":2,"txn":"T1","type":"UPDATE"}'
)

#: a SUBTXN_REQ frame and a submit frame, likewise
GOLDEN_MSG = (
    b'\x00\x00\x01\x94{"kind":"msg","payload":{"ops":[{"key":"k9","op":"read"},'
    b'{"key":"k0","name":"withdraw","op":"semantic","params":{"amount":3}},'
    b'{"key":"k3","name":"reserve","op":"semantic",'
    b'"params":{"count":2,"note":"x"}},'
    b'{"key":"k2","name":"increment","op":"semantic","params":{}}],'
    b'"real_action":false,"transmarks":[],'
    b'"vote":{"__vote_policy__":"AUTO"}},"recipient":"S2",'
    b'"sender":"coord.T1","txn":"T1","type":"SUBTXN_REQ"}'
)
GOLDEN_SUBMIT = (
    b'\x00\x00\x01\xbb{"kind":"submit","spec":{"subtxns":[{"ops":['
    b'{"key":"k9","op":"read"},'
    b'{"key":"k0","name":"withdraw","op":"semantic","params":{"amount":3}}],'
    b'"real_action":false,"site_id":"S1","vote":{"__vote_policy__":"AUTO"}},'
    b'{"ops":[{"key":"k3","name":"reserve","op":"semantic",'
    b'"params":{"count":2,"note":"x"}},'
    b'{"key":"k2","name":"increment","op":"semantic","params":{}}],'
    b'"real_action":false,"site_id":"S2",'
    b'"vote":{"__vote_policy__":"FORCE_NO"}}],"txn":"T1"}}'
)

PAYLOAD = {"b": [1, 2], "a": 0}


def _wire_ops():
    return [
        ReadOp("k9"),
        SemanticOp("withdraw", "k0", {"amount": 3}),
        SemanticOp("reserve", "k3", {"note": "x", "count": 2}),
        SemanticOp("increment", "k2"),
    ]


def test_wal_frames_carry_the_same_bytes_and_read_back(tmp_path):
    path = tmp_path / "S1.wal"
    wal = WriteAheadLog("S1", path=str(path))
    ops = [
        SemanticOp("deposit", "k0", {"amount": 7}),
        SemanticOp("insert", "k1", {"value": PAYLOAD}),
        SemanticOp("increment", "k2"),
    ]
    images = [(5, 12), (None, PAYLOAD), (3, 4)]
    for op, (before, after) in zip(ops, images):
        wal.append(
            RecordType.UPDATE, "T1", key=op.key, before=before, after=after,
            op=op,
        )
    wal.close()
    assert path.read_bytes() == GOLDEN_WAL
    reread = WriteAheadLog("S1", path=str(path))
    assert [record.op for record in reread] == ops
    assert all(type(record.op.params) is Params for record in reread)
    reread.close()


def test_wire_frames_carry_the_same_bytes_and_decode_back():
    ops = _wire_ops()
    message = Message(
        msg_type=MsgType.SUBTXN_REQ, sender="coord.T1", recipient="S2",
        txn_id="T1", payload={
            "ops": tuple(ops), "vote": VotePolicy.AUTO, "real_action": False,
            "transmarks": [],
        },
    )
    frame = wire.encode_frame(wire.message_to_json(message))
    assert frame == GOLDEN_MSG
    decoded = wire.message_from_json(wire.decode_frame(frame[4:]))
    assert list(decoded.payload["ops"]) == ops

    spec = GlobalTxnSpec("T1", [
        SubtxnSpec("S1", ops[:2]),
        SubtxnSpec("S2", ops[2:], vote=VotePolicy.FORCE_NO),
    ])
    frame = wire.encode_frame(
        {"kind": "submit", "spec": wire.spec_to_json(spec)}
    )
    assert frame == GOLDEN_SUBMIT
    assert wire.spec_from_json(wire.decode_frame(frame[4:])["spec"]) == spec


def test_spec_containers_are_tuples():
    ops = [ReadOp("k0"), SemanticOp("deposit", "k1", {"amount": 1})]
    sub = SubtxnSpec("S1", ops)
    spec = GlobalTxnSpec("T1", [sub, SubtxnSpec("S2", ops)])
    assert sub.ops == tuple(ops) and type(sub.ops) is tuple
    assert type(spec.subtxns) is tuple and spec.subtxns[0] is sub
    ops.append(ReadOp("k2"))
    assert len(sub.ops) == 2
    with pytest.raises(ValueError, match="duplicate subtransaction at S1"):
        GlobalTxnSpec("T2", [sub, sub])
