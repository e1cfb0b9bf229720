"""EX1 — Example 1: minimal representations and "includes".

Regenerates the paper's worked example verbatim, then checks "includes" on
a chain of sites with shortcut edges.
"""

from repro.harness import ExperimentResult, format_table
from repro.sg import GlobalSG, minimal_representations, path_includes
from tests.sg.figures import add_path


def example1() -> GlobalSG:
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "CT1", "T2")
    add_path(gsg.site("S2"), "CT1", "T2", "CT3")
    add_path(gsg.site("S3"), "CT3", "CT1")
    return gsg


def test_example1_table():
    gsg = example1()
    reps = minimal_representations(gsg, "CT1", "CT3")
    rows = [
        ExperimentResult(
            params={"representation": i + 1},
            measures={
                "segments": len(rep),
                "path": "; ".join(map(repr, rep)),
            },
        )
        for i, rep in enumerate(reps)
    ]
    print()
    print(format_table(rows, title="EX1: minimal representations of CT1 -> CT3"))
    print(f"includes T2: {path_includes(gsg, 'CT1', 'CT3', 'T2')}")
    assert len(reps) == 1
    assert len(reps[0]) == 1
    assert not path_includes(gsg, "CT1", "CT3", "T2")


def chain_gsg(n_sites: int) -> GlobalSG:
    """A chain of sites each advancing the path by one hop, plus shortcut
    sites covering two hops — exercises the shortest-walk search."""
    gsg = GlobalSG()
    for i in range(n_sites):
        add_path(gsg.site(f"S{i}"), f"N{i}", f"N{i + 1}")
        if i + 2 <= n_sites:
            add_path(gsg.site(f"X{i}"), f"N{i}", f"M{i}", f"N{i + 2}")
    return gsg


def test_includes_excludes_odd_nodes_on_shortcut_chain():
    gsg = chain_gsg(24)
    assert not path_includes(gsg, "N0", "N24", "N13")
