"""Unit tests for cycle explanations."""

import pytest

from repro.harness import System, SystemConfig
from repro.sg import GlobalSG, find_regular_cycle
from repro.sg.explain import explain_cycle, render_explanation
from repro.txn import GlobalTxnSpec, ReadOp, SubtxnSpec, VotePolicy, WriteOp
from tests.sg.figures import add_path


def test_explains_hand_built_cycle():
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T2", "L1", "CT1")
    gsg.site("S2").add_edge("CT1", "T2")
    cycle = find_regular_cycle(gsg)
    explanations = explain_cycle(gsg, cycle)
    assert len(explanations) == 2
    by_pair = {(e.src, e.dst): e for e in explanations}
    assert by_pair[("T2", "CT1")].site == "S1"
    assert by_pair[("T2", "CT1")].node_path == ["T2", "L1", "CT1"]
    assert by_pair[("CT1", "T2")].node_path == ["CT1", "T2"]


def test_evidence_from_simulated_history():
    system = System(SystemConfig(n_sites=2))
    system.submit(GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [WriteOp("k0", "dirty")]),
        SubtxnSpec("S2", [WriteOp("k0", "dirty")], vote=VotePolicy.FORCE_NO),
    ]))

    def submit_t2():
        yield system.env.timeout(4.2)
        yield system.submit(GlobalTxnSpec(txn_id="T2", subtxns=[
            SubtxnSpec("S2", [ReadOp("k0")]),
            SubtxnSpec("S1", [ReadOp("k0")]),
        ]))

    system.env.process(submit_t2())
    system.env.run()
    gsg = system.global_sg()
    cycle = find_regular_cycle(gsg)
    assert cycle is not None
    explanations = explain_cycle(gsg, cycle, system.global_history())
    assert all(e.evidence for e in explanations)
    keys = {
        ev.src_op.key for e in explanations for ev in e.evidence
    }
    assert keys == {"k0"}
    text = render_explanation(explanations)
    assert "k0" in text
    assert "@ S1" in text or "@ S2" in text


def test_non_segment_rejected():
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T1", "T2")
    with pytest.raises(ValueError, match="not a segment"):
        explain_cycle(gsg, ["T2", "T1", "T2"])
