"""The regular-cycle judge over the whole segment graph.

``find_regular_cycle`` builds segment-graph closures only inside the
nontrivial strongly connected components of the union graph that hold a
candidate.  This module keeps the judge it replaced — one closure over
every site's whole local SG, components taken from that closure — so tests
can demand the two return the identical value.
"""

from repro.sg.cycles import find_chordless_cycle_through
from repro.sg.graph import GlobalSG, TxnKind, classify
from repro.sg.paths import SegmentGraph, strongly_connected_components


def find_regular_cycle_reference(
    gsg: GlobalSG, regular_nodes: set[str] | None = None
) -> list[str] | None:
    """The full-closure judge: same contract as ``find_regular_cycle``."""
    graph = SegmentGraph(gsg)
    components = strongly_connected_components(
        sorted(graph.nodes), graph.successors
    )
    cyclic_nodes = {
        node for component in components if len(component) > 1
        for node in component
    }
    for node in sorted(cyclic_nodes):
        if classify(node) is not TxnKind.GLOBAL:
            continue
        if regular_nodes is not None and node not in regular_nodes:
            continue
        cycle = find_chordless_cycle_through(graph, node)
        if cycle is not None:
            return cycle
    return None
