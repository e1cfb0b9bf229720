"""Unit tests for operations, conflicts, and histories."""

import pytest

from repro.errors import HistoryError
from repro.sg import GlobalHistory, OpKind, Operation, SiteHistory, conflicts


def op(txn, kind, key, seq=0, site="S1"):
    return Operation(txn_id=txn, kind=kind, key=key, site=site, seq=seq)


class TestConflicts:
    def test_write_write_conflict(self):
        assert conflicts(op("T1", OpKind.WRITE, "x"), op("T2", OpKind.WRITE, "x"))

    def test_read_write_conflict_both_orders(self):
        assert conflicts(op("T1", OpKind.READ, "x"), op("T2", OpKind.WRITE, "x"))
        assert conflicts(op("T1", OpKind.WRITE, "x"), op("T2", OpKind.READ, "x"))

    def test_read_read_no_conflict(self):
        assert not conflicts(op("T1", OpKind.READ, "x"), op("T2", OpKind.READ, "x"))

    def test_same_transaction_no_conflict(self):
        assert not conflicts(
            op("T1", OpKind.WRITE, "x"), op("T1", OpKind.WRITE, "x", seq=1)
        )

    def test_different_keys_no_conflict(self):
        assert not conflicts(op("T1", OpKind.WRITE, "x"), op("T2", OpKind.WRITE, "y"))


class TestSiteHistory:
    def test_ops_sequenced_in_order(self):
        h = SiteHistory("S1")
        h.read("T1", "x")
        h.write("T1", "x")
        assert [o.seq for o in h.ops] == [0, 1]
        assert h.transactions() == {"T1"}

    def test_terminated_txn_rejects_new_ops(self):
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.commit("T1")
        with pytest.raises(HistoryError):
            h.read("T1", "y")

    def test_commit_abort_conflict(self):
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.commit("T1")
        with pytest.raises(HistoryError):
            h.abort("T1")

    def test_reads_from_latest_writer(self):
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.write("T2", "x")
        h.read("T3", "x")
        assert h.reads_from() == [("T3", "T2", "x")]

    def test_reads_from_ignores_aborted(self):
        h = SiteHistory("S1")
        h.write("L1", "x")
        h.commit("L1")
        h.write("L2", "x")
        h.abort("L2")
        h2 = SiteHistory("S2")
        # rebuild to interleave: aborted write then read
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.write("L9", "x")
        h.abort("L9")
        h.read("T2", "x")
        assert ("T2", "T1", "x") in h.reads_from()
        assert all(w != "L9" for _, w, _ in h.reads_from())

    def test_reads_from_own_write_excluded(self):
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.read("T1", "x")
        assert h.reads_from() == []


class TestGlobalHistory:
    def test_site_autocreate(self):
        gh = GlobalHistory()
        gh.site("S1").write("T1", "x")
        gh.site("S2").write("T1", "y")
        assert sorted(gh.sites) == ["S1", "S2"]
        assert gh.transactions() == {"T1"}

    def test_global_reads_from_tagged_with_site(self):
        gh = GlobalHistory()
        gh.site("S1").write("T1", "x")
        gh.site("S1").read("T2", "x")
        gh.site("S2").write("T3", "y")
        gh.site("S2").read("T2", "y")
        assert gh.reads_from() == [
            ("T2", "T1", "x", "S1"),
            ("T2", "T3", "y", "S2"),
        ]
