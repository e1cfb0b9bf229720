"""Unit tests for local and global serialization graphs."""

import pytest

from repro.sg import GlobalSG, SG, SiteHistory, TxnKind, classify
from repro.sg.history import GlobalHistory
from tests.sg.figures import add_path, union_edges


class TestClassify:
    def test_populations(self):
        assert classify("T1") is TxnKind.GLOBAL
        assert classify("CT1") is TxnKind.COMPENSATING
        assert classify("L3") is TxnKind.LOCAL


class TestSGConstruction:
    def test_from_history_conflict_edges(self):
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.read("T2", "x")
        h.write("T2", "y")
        h.write("T3", "y")
        sg = SG.from_history(h)
        assert sg.has_edge("T1", "T2")
        assert sg.has_edge("T2", "T3")
        assert not sg.has_edge("T1", "T3")

    def test_from_history_excludes_uncommitted_local(self):
        h = SiteHistory("S1")
        h.write("L1", "x")  # local, never committed
        h.write("L2", "y")
        h.commit("L2")
        h.write("T1", "x")
        sg = SG.from_history(h)
        assert not sg.has_node("L1")
        assert sg.has_node("L2")
        assert sg.has_node("T1")
        # L1's ops create no edges
        assert sg.successors("T1") == set()

    def test_from_history_excludes_rolled_back_global(self):
        """A subtransaction rolled back at this site exposed nothing here:
        its operations leave the SG; the degenerate CT's restoring writes
        (recorded separately, as a committed CT) remain."""
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.abort("T1")
        h.write("CT1", "x")
        h.commit("CT1")
        h.read("T2", "x")
        sg = SG.from_history(h)
        assert not sg.has_node("T1")
        assert sg.has_edge("CT1", "T2")

    def test_from_history_keeps_locally_committed_then_compensated(self):
        """A locally-committed transaction *did* expose updates: it stays,
        with the compensation serialized after it."""
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.commit("T1")  # local commitment (O2PC YES vote)
        h.write("CT1", "x")
        h.commit("CT1")
        sg = SG.from_history(h)
        assert sg.has_edge("T1", "CT1")

    def test_reads_do_not_conflict(self):
        h = SiteHistory("S1")
        h.read("T1", "x")
        h.read("T2", "x")
        sg = SG.from_history(h)
        assert sg.edges() == []


class TestSGQueries:
    def test_add_path_and_reachability(self):
        sg = SG("S1")
        add_path(sg, "A", "B", "C", "D")
        assert sg.reachable("A", "D")
        assert not sg.reachable("D", "A")
        assert sg.connected_either_direction("D", "A")

    def test_reachable_requires_nonempty_path(self):
        sg = SG("S1")
        sg.add_node("A")
        assert not sg.reachable("A", "A")

    def test_reachable_with_avoid(self):
        sg = SG("S1")
        add_path(sg, "A", "B", "C")
        sg.add_edge("A", "C")
        assert sg.reachable("A", "C", avoid="B")
        sg2 = SG("S2")
        add_path(sg2, "A", "B", "C")
        assert not sg2.reachable("A", "C", avoid="B")

    def test_avoid_does_not_exclude_endpoints(self):
        sg = SG("S1")
        add_path(sg, "A", "B")
        assert sg.reachable("A", "B", avoid="A")
        assert sg.reachable("A", "B", avoid="B")

    def test_self_loop_rejected(self):
        sg = SG("S1")
        with pytest.raises(ValueError):
            sg.add_edge("A", "A")

    def test_find_local_cycle(self):
        sg = SG("S1")
        add_path(sg, "A", "B", "C", "A")
        cycle = sg.find_local_cycle()
        assert cycle is not None and cycle[0] == cycle[-1]
        assert set(cycle) == {"A", "B", "C"}

    def test_find_local_cycle_none_in_dag(self):
        sg = SG("S1")
        add_path(sg, "A", "B", "C")
        assert sg.find_local_cycle() is None


class TestGlobalSG:
    def test_union_nodes_and_edges(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "T2")
        gsg.site("S2").add_edge("T2", "T3")
        assert gsg.nodes == {"T1", "T2", "T3"}
        assert union_edges(gsg) == {("T1", "T2"), ("T2", "T3")}

    def test_sites_with(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "T2")
        gsg.site("S2").add_edge("T2", "T3")
        assert gsg.sites_with("T2") == ["S1", "S2"]
        assert gsg.sites_with("T1", "T2") == ["S1"]
        assert gsg.sites_with("T1", "T3") == []

    def test_from_history(self):
        gh = GlobalHistory()
        gh.site("S1").write("T1", "x")
        gh.site("S1").read("T2", "x")
        gh.site("S2").write("T2", "y")
        gsg = GlobalSG.from_history(gh)
        assert gsg.locals["S1"].has_edge("T1", "T2")
        assert gsg.locals["S2"].has_node("T2")

    def test_nodes_of_kind(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "CT2")
        gsg.site("S1").add_edge("L1", "T1")
        assert gsg.nodes_of_kind(TxnKind.GLOBAL) == {"T1"}
        assert gsg.nodes_of_kind(TxnKind.COMPENSATING) == {"CT2"}
        assert gsg.nodes_of_kind(TxnKind.LOCAL) == {"L1"}
