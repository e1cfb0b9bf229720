"""Property-based tests: minimal representations and path inclusion.

Invariants of the Section-5 machinery on random multi-site SGs:

* every minimal representation is a connected chain from src to dst whose
  segments are genuine local paths;
* all minimal representations of a path have the same length, and no
  representation of the path can be shorter (cross-checked against the
  segment-graph BFS distance);
* ``path_includes`` agrees with membership in the enumerated minimal
  representations;
* the segment graph's transitive-closure construction agrees with naive
  per-site DFS reachability, and restricted to a strongly connected
  component of the union graph it keeps exactly the members' segments.
"""

from hypothesis import given, settings, strategies as st

from repro.sg import GlobalSG, global_path_exists, minimal_representations, path_includes
from repro.sg.paths import SegmentGraph, segment_sites, union_components


NODES = [f"N{i}" for i in range(6)]


@st.composite
def random_gsg(draw):
    n_sites = draw(st.integers(min_value=1, max_value=3))
    gsg = GlobalSG()
    for s in range(n_sites):
        sg = gsg.site(f"S{s}")
        edges = draw(st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=10,
        ))
        for a, b in edges:
            if a != b:
                sg.add_edge(a, b)
        for node in NODES[:3]:
            sg.add_node(node)
    return gsg


def naive_reachable(sg, src, dst):
    seen, stack = set(), [src]
    while stack:
        node = stack.pop()
        for succ in sg.successors(node):
            if succ == dst:
                return True
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


@settings(max_examples=200, deadline=None)
@given(random_gsg())
def test_segment_graph_matches_naive_reachability(gsg):
    graph = SegmentGraph(gsg)
    nodes = sorted(gsg.nodes)
    for src in nodes:
        for dst in nodes:
            sites = {
                site_id for site_id, sg in gsg.locals.items()
                if src != dst and naive_reachable(sg, src, dst)
            }
            assert segment_sites(gsg, src, dst) == sites
            assert graph.has_segment(src, dst) == bool(sites)


@settings(max_examples=200, deadline=None)
@given(random_gsg())
def test_component_restricted_closure_is_exact(gsg):
    """Inside a strongly connected component of the union graph, the
    closure restricted to its members has exactly the full segments."""
    graph = SegmentGraph(gsg)
    for component in union_components(gsg):
        restricted = SegmentGraph(gsg, within=set(component))
        for src in component:
            assert restricted.successors(src) == (
                graph.successors(src) & set(component)
            )


@settings(max_examples=150, deadline=None)
@given(random_gsg(), st.sampled_from(NODES), st.sampled_from(NODES))
def test_minimal_representations_are_valid_chains(gsg, src, dst):
    reps = minimal_representations(gsg, src, dst)
    if not reps:
        if src != dst:
            assert not global_path_exists(gsg, src, dst)
        return
    graph = SegmentGraph(gsg)
    lengths = {len(rep) for rep in reps}
    assert len(lengths) == 1, "minimal representations differ in length"
    expected = graph.distance(src, dst)
    assert lengths == {expected}
    for rep in reps:
        assert rep[0].src == src
        assert rep[-1].dst == dst
        for seg, nxt in zip(rep, rep[1:]):
            assert seg.dst == nxt.src
        for seg in rep:
            assert seg.sites, "segment without a realizing site"
            for site_id in seg.sites:
                assert naive_reachable(
                    gsg.locals[site_id], seg.src, seg.dst
                )


@settings(max_examples=150, deadline=None)
@given(random_gsg(), st.sampled_from(NODES), st.sampled_from(NODES))
def test_path_includes_agrees_with_enumeration(gsg, src, dst):
    if src == dst:
        return
    reps = minimal_representations(gsg, src, dst)
    on_reps = {
        node
        for rep in reps
        for seg in rep
        for node in (seg.src, seg.dst)
    }
    for node in NODES:
        included = path_includes(gsg, src, dst, node)
        assert included == (node in on_reps), (
            f"includes({node}) = {included}, enumeration says "
            f"{node in on_reps}"
        )
