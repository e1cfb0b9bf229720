"""Reproduction of Figure 1: regular-cycle configurations.

The figure itself is an image in the original paper; the configurations
below are reconstructed from the surrounding text (Sections 4-5): regular
cycles arise when a transaction ``T2`` follows ``T1`` in the SG before
``T1`` is globally committed or fully compensated-for — i.e. ``T2`` is
ordered after ``CT1`` at one site and before (or incomparably to) it at
another.  Four canonical shapes are exercised:

(a) ``T2 -> CT1`` in SG1 and ``CT1 -> T2`` in SG2 — the text's example of a
    pair forming a regular cycle;
(b) the dual orientation with ``T1`` present: ``T1 -> CT1 -> T2`` in SG1,
    ``T2 -> CT1`` in SG2;
(c) a three-site cycle through two regular transactions;
(d) a cycle threaded through a committed local transaction.
"""

from repro.sg import GlobalSG, find_regular_cycle, is_correct
from repro.sg.graph import TxnKind, classify
from tests.sg.figures import add_path


def assert_regular_cycle(gsg: GlobalSG):
    cycle = find_regular_cycle(gsg)
    assert cycle is not None, "expected a regular cycle"
    assert cycle[0] == cycle[-1]
    assert any(classify(n) is TxnKind.GLOBAL for n in cycle)
    assert not is_correct(gsg)
    return cycle


def test_fig1a_two_site_cycle():
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T2", "CT1")
    gsg.site("S2").add_edge("CT1", "T2")
    cycle = assert_regular_cycle(gsg)
    assert set(cycle) == {"T2", "CT1"}


def test_fig1b_cycle_with_forward_transaction_present():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "CT1", "T2")
    gsg.site("S2").add_edge("T2", "CT1")
    assert_regular_cycle(gsg)


def test_fig1c_three_site_cycle_two_regulars():
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T2", "CT1")
    gsg.site("S2").add_edge("CT1", "T3")
    gsg.site("S3").add_edge("T3", "T2")
    cycle = assert_regular_cycle(gsg)
    assert {"T2", "T3"} <= set(cycle)


def test_fig1d_cycle_through_local_transaction():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T2", "L1", "CT1")
    gsg.site("S2").add_edge("CT1", "T2")
    cycle = assert_regular_cycle(gsg)
    # The local transaction is interior to SG1's segment: boundaries only.
    assert "L1" not in cycle


def test_pure_regular_cycle_also_detected():
    """A cycle among regular transactions only (no CT) is regular too.

    (Lemma 1 says such cycles cannot arise under the protocols; the
    *detector* still must flag them — e.g. if 2PL were violated.)
    """
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T1", "T2")
    gsg.site("S2").add_edge("T2", "T1")
    assert_regular_cycle(gsg)


def test_acyclic_union_has_no_regular_cycle():
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T1", "T2")
    gsg.site("S2").add_edge("T2", "T3")
    gsg.site("S3").add_edge("T1", "T3")
    assert find_regular_cycle(gsg) is None
    assert is_correct(gsg)


def test_ct_and_local_only_cycle_allowed():
    """Cycles of compensating transactions (+ locals) are not regular."""
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "CT1", "L1", "CT2")
    gsg.site("S2").add_edge("CT2", "CT1")
    assert find_regular_cycle(gsg) is None
    assert is_correct(gsg)


def test_regular_transaction_shortcut_makes_cycle_benign():
    """Example 1's shortcut phenomenon, reduced to its core: if the only
    cycle through a regular transaction can be re-segmented without it,
    there is no regular cycle."""
    gsg = GlobalSG()
    # The cycle visits T9 at SG1/SG2, but SG2 offers CT1 -> CT2 directly.
    gsg.site("S1").add_edge("CT1", "T9")
    add_path(gsg.site("S2"), "CT1", "T9", "CT2")
    gsg.site("S3").add_edge("CT2", "CT1")
    assert find_regular_cycle(gsg) is None


def test_local_cycle_detected_as_incorrect():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "T2", "T1")
    from repro.sg.cycles import find_local_cycle

    found = find_local_cycle(gsg)
    assert found is not None
    site, cycle = found
    assert site == "S1"
    assert not is_correct(gsg)
