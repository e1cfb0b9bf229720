"""Property-based tests: history serialization round-trips exactly."""

from hypothesis import given, settings, strategies as st

from repro.sg import GlobalHistory, GlobalSG, find_regular_cycle
from repro.sg.cycles import find_local_cycle
from repro.sg.serialize import history_from_dict, history_to_dict
from tests.sg.figures import union_edges


TXNS = ["T1", "T2", "CT1", "L1"]
KEYS = ["x", "y"]
SITES = ["S1", "S2"]

op_entry = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(TXNS),
    st.sampled_from(["r", "w"]),
    st.sampled_from(KEYS),
)


@st.composite
def random_history(draw):
    history = GlobalHistory()
    ops = draw(st.lists(op_entry, max_size=25))
    terminated: set[tuple[str, str]] = set()
    for site_id, txn, kind, key in ops:
        if (site_id, txn) in terminated:
            continue
        site = history.site(site_id)
        if kind == "r":
            site.read(txn, key)
        else:
            site.write(txn, key)
    # Randomly terminate some transactions per site.
    for site_id, site in history.sites.items():
        for txn in sorted(site.transactions()):
            verdict = draw(st.sampled_from(["commit", "abort", "open"]))
            if verdict == "commit":
                site.commit(txn)
            elif verdict == "abort":
                site.abort(txn)
    return history


@settings(max_examples=200, deadline=None)
@given(random_history())
def test_roundtrip_is_exact(history):
    data = history_to_dict(history)
    rebuilt = history_from_dict(data)
    assert history_to_dict(rebuilt) == data


@settings(max_examples=100, deadline=None)
@given(random_history())
def test_roundtrip_preserves_sg_verdicts(history):
    rebuilt = history_from_dict(history_to_dict(history))
    original_gsg = GlobalSG.from_history(history)
    rebuilt_gsg = GlobalSG.from_history(rebuilt)
    assert union_edges(original_gsg) == union_edges(rebuilt_gsg)
    assert find_regular_cycle(original_gsg) == find_regular_cycle(rebuilt_gsg)
    assert find_local_cycle(original_gsg) == find_local_cycle(rebuilt_gsg)
