"""Helpers that draw the paper's serialization-graph figures in tests."""

from repro.sg import SG, GlobalSG


def add_path(sg: SG, *nodes: str) -> None:
    """Add the chain of edges ``nodes[0] → nodes[1] → ...`` to ``sg``."""
    for src, dst in zip(nodes, nodes[1:]):
        sg.add_edge(src, dst)


def union_edges(gsg: GlobalSG) -> set[tuple[str, str]]:
    """Union of every site's edge set."""
    result: set[tuple[str, str]] = set()
    for sg in gsg.locals.values():
        result.update(sg.edges())
    return result
