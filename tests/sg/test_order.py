"""Unit tests for serialization-order witnesses."""

import pytest

from repro.errors import CorrectnessViolation
from repro.sg import GlobalSG
from repro.sg.order import is_serializable, serialization_order
from tests.sg.figures import add_path, union_edges


def test_acyclic_graph_orders_topologically():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "T2")
    add_path(gsg.site("S2"), "T2", "T3")
    order = serialization_order(gsg)
    flat = [node for group in order for node in group]
    assert flat.index("T1") < flat.index("T2") < flat.index("T3")
    assert all(len(g) == 1 for g in order)
    assert is_serializable(gsg)


def test_ct_cycle_grouped_not_rejected():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "CT1", "CT2")
    gsg.site("S2").add_edge("CT2", "CT1")
    order = serialization_order(gsg)
    groups = {frozenset(g) for g in order if len(g) > 1}
    assert frozenset({"CT1", "CT2"}) in groups
    assert not is_serializable(gsg)  # cyclic, just allowed


def test_ct_group_ordered_after_forward_txn():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "CT1", "CT2")
    gsg.site("S2").add_edge("CT2", "CT1")
    order = serialization_order(gsg)
    flat_groups = [set(g) for g in order]
    t1_pos = next(i for i, g in enumerate(flat_groups) if "T1" in g)
    ct_pos = next(i for i, g in enumerate(flat_groups) if "CT1" in g)
    assert t1_pos < ct_pos


def test_regular_cycle_raises():
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T2", "CT1")
    gsg.site("S2").add_edge("CT1", "T2")
    with pytest.raises(CorrectnessViolation):
        serialization_order(gsg)


def test_local_cycle_raises():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "T2", "T1")
    with pytest.raises(CorrectnessViolation):
        serialization_order(gsg)


def test_narrowed_regular_set_allows_aborted_cycles():
    """With the effective criterion, a cycle through an aborted (revoked)
    transaction is grouped like a CT cycle instead of rejected."""
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T9", "CT1")
    gsg.site("S2").add_edge("CT1", "T9")
    with pytest.raises(CorrectnessViolation):
        serialization_order(gsg)  # literal criterion: T9 is regular
    order = serialization_order(gsg, regular_nodes=set())  # T9 aborted
    groups = {frozenset(g) for g in order if len(g) > 1}
    assert frozenset({"T9", "CT1"}) in groups


def test_witness_respects_every_edge():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "T3")
    add_path(gsg.site("S2"), "T2", "T3")
    add_path(gsg.site("S3"), "T1", "T2")
    order = serialization_order(gsg)
    position = {
        node: i for i, group in enumerate(order) for node in group
    }
    for src, dst in union_edges(gsg):
        assert position[src] < position[dst]
