"""The incremental ConflictIndex agrees with the pairwise scan — always.

``SG.from_history`` is a view over :class:`repro.sg.index.ConflictIndex`;
``tests/sg/scan_reference.py`` keeps the original O(n²) rebuild as the oracle.
The property test here drives random histories (including aborts, commits,
and expunges) through both builders and demands identical graphs; the unit
tests pin the individual invariants the view relies on.
"""

from hypothesis import given, settings, strategies as st

from repro.core.marks import MARKS_KEY
from repro.errors import HistoryError
from repro.sg import SG, ConflictIndex, GlobalHistory, GlobalSG, SiteHistory
from repro.sg.conflicts import OpKind, Operation
from tests.sg.figures import union_edges
from tests.sg.scan_reference import (
    global_sg_from_scan,
    sg_from_scan,
    verify_conflict_index,
)


TXNS = ["T1", "T2", "CT1", "L1", "L2"]
KEYS = ["x", "y", MARKS_KEY]
SITES = ["S1", "S2"]

op_entry = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(TXNS),
    st.sampled_from(["r", "w"]),
    st.sampled_from(KEYS),
)


@st.composite
def random_history(draw):
    """A global history with random terminations and expunges mixed in."""
    history = GlobalHistory()
    ops = draw(st.lists(op_entry, max_size=30))
    terminated: set[tuple[str, str]] = set()
    for site_id, txn, kind, key in ops:
        if (site_id, txn) in terminated:
            continue
        site = history.site(site_id)
        if kind == "r":
            site.read(txn, key)
        else:
            site.write(txn, key)
        verdict = draw(
            st.sampled_from(["open", "open", "open", "commit", "expunge"])
        )
        if verdict == "commit":
            site.commit(txn)
            terminated.add((site_id, txn))
        elif verdict == "expunge":
            site.abort(txn)
            site.expunge(txn)
    # Randomly terminate whatever is still open per site.
    for site in history.sites.values():
        for txn in sorted(site.transactions()):
            if txn in site.committed or txn in site.aborted:
                continue
            verdict = draw(st.sampled_from(["commit", "abort", "open"]))
            if verdict == "commit":
                site.commit(txn)
            elif verdict == "abort":
                site.abort(txn)
    return history


@settings(max_examples=200, deadline=None)
@given(random_history())
def test_index_view_matches_pairwise_scan(history):
    fast = GlobalSG.from_history(history)
    slow = global_sg_from_scan(history)
    assert fast.nodes == slow.nodes
    assert union_edges(fast) == union_edges(slow)
    for site_id, sg in fast.locals.items():
        assert sg.edges() == slow.locals[site_id].edges()
    verify_conflict_index(history)  # must not raise


class TestConflictIndex:
    def test_write_write_and_read_write_edges(self):
        h = SiteHistory("S1")
        h.write("T1", "x")
        h.read("T2", "x")
        h.write("T3", "x")
        edges = {pair for pair, _keys in h.index.edges()}
        # T3's write conflicts with BOTH earlier accessors, including the
        # transitive T1 -> T3 edge the pairwise scan would find.
        assert edges == {("T1", "T2"), ("T1", "T3"), ("T2", "T3")}

    def test_reads_do_not_conflict(self):
        h = SiteHistory("S1")
        h.read("T1", "x")
        h.read("T2", "x")
        assert len(h.index) == 0

    def test_edges_remember_inducing_keys(self):
        h = SiteHistory("S1")
        h.write("T1", MARKS_KEY)
        h.write("T2", MARKS_KEY)
        h.write("T1", "x")  # wrong order on purpose: T1 not terminated yet
        h.read("T2", "x")
        (pair, keys), = h.index.edges()
        assert pair == ("T1", "T2")
        assert keys == {MARKS_KEY, "x"}

    def test_marks_only_edges_excluded_from_sg(self):
        h = SiteHistory("S1")
        h.write("T1", MARKS_KEY)
        h.write("T2", MARKS_KEY)
        h.commit("T1")
        h.commit("T2")
        assert len(h.index) == 1  # the edge exists in the index ...
        assert SG.from_history(h).edges() == []  # ... but not in the SG
        assert sg_from_scan(h).edges() == []

    def test_forget_removes_incident_edges_only(self):
        index = ConflictIndex()
        ops = [
            Operation("T1", OpKind.WRITE, "x", "S1", 0),
            Operation("T2", OpKind.WRITE, "x", "S1", 1),
            Operation("T3", OpKind.WRITE, "x", "S1", 2),
        ]
        for op in ops:
            index.record(op)
        index.forget("T2")
        assert {pair for pair, _ in index.edges()} == {("T1", "T3")}

    def test_forget_then_rerecord_is_clean(self):
        index = ConflictIndex()
        index.record(Operation("T1", OpKind.WRITE, "x", "S1", 0))
        index.record(Operation("T2", OpKind.READ, "x", "S1", 1))
        index.forget("T1")
        # T1 is gone entirely: a new reader sees no writer of x.
        index.record(Operation("T3", OpKind.READ, "x", "S1", 2))
        assert len(index) == 0


class TestExpungeConsistency:
    def test_expunge_updates_index(self):
        h = SiteHistory("S1")
        h.write("L1", "x")
        h.write("T1", "x")
        h.commit("T1")
        h.abort("L1")
        h.expunge("L1")
        assert {pair for pair, _ in h.index.edges()} == set()
        assert SG.from_history(h).edges() == sg_from_scan(h).edges()

    def test_expunge_does_not_reuse_seq(self):
        """Regression: seq must stay monotonic across expunges.

        With a ``len(ops)``-based counter, expunging L1's two operations
        let T2's op reuse seq 1 — colliding with T1's op and breaking the
        "seq orders operations" invariant the explain/order layers use.
        """
        h = SiteHistory("S1")
        h.write("L1", "x")
        op_t1 = h.write("T1", "y")
        h.write("L1", "z")
        h.abort("L1")
        h.expunge("L1")
        op_t2 = h.write("T2", "y")
        assert op_t2.seq > op_t1.seq
        seqs = [op.seq for op in h.ops]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

    def test_post_init_resumes_seq_past_preseeded_ops(self):
        preseeded = [
            Operation("T1", OpKind.WRITE, "x", "S1", 0),
            Operation("T2", OpKind.READ, "x", "S1", 5),
        ]
        h = SiteHistory("S1", ops=list(preseeded))
        op = h.write("T3", "x")
        assert op.seq == 6
        # ... and the index was seeded from the pre-recorded ops.
        assert ("T1", "T2") in dict(h.index.edges())


class TestVerifyConflictIndex:
    def test_clean_history_passes(self):
        history = GlobalHistory()
        site = history.site("S1")
        site.write("T1", "x")
        site.read("T2", "x")
        site.commit("T1")
        site.commit("T2")
        verify_conflict_index(history)

    def test_corrupted_index_is_detected(self):
        history = GlobalHistory()
        site = history.site("S1")
        site.write("T1", "x")
        site.write("T2", "x")
        site.commit("T1")
        site.commit("T2")
        site.index.forget("T1")  # sabotage the index behind the history
        try:
            verify_conflict_index(history)
        except HistoryError as exc:
            assert "S1" in str(exc)
        else:
            raise AssertionError("divergence not detected")
