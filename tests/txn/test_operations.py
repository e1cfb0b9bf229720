"""Unit tests for operation helpers."""

from repro.txn import ReadOp, SemanticOp, WriteOp


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
