"""Unit tests for identifier helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import ids


def test_site_ids():
    assert ids.site_id(2) == "S2"


def test_compensation_roundtrip():
    assert ids.compensation_id("T3") == "CT3"
    assert ids.compensated_txn_id("CT3") == "T3"
    assert ids.is_compensation_id("CT3")
    assert not ids.is_compensation_id("T3")


def test_compensation_of_non_standard_id():
    ct = ids.compensation_id("weird")
    assert ids.is_compensation_id(ct)
    assert ids.compensated_txn_id(ct) == "weird"


def test_compensated_of_non_ct_rejected():
    with pytest.raises(ValueError):
        ids.compensated_txn_id("T3")


def test_subtransaction_ids():
    sub = ids.subtransaction_id("T1", "S2")
    assert sub == "T1@S2"


@given(st.integers(min_value=1, max_value=10_000))
def test_compensation_roundtrip_property(n):
    txn = f"T{n}"
    assert ids.compensated_txn_id(ids.compensation_id(txn)) == txn
