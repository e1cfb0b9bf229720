"""FIG1 — Figure 1: regular-cycle detection.

Regenerates the paper's Figure 1 configurations (reconstructed from the
text; the original is an image) and verifies the detector's verdict on each.
"""

import pytest

from repro.harness import ExperimentResult, format_table
from repro.sg import GlobalSG, find_regular_cycle


def fig1_configurations() -> dict[str, tuple[GlobalSG, bool]]:
    """name -> (global SG, expected regular-cycle verdict)."""
    configs: dict[str, tuple[GlobalSG, bool]] = {}

    a = GlobalSG()
    a.site("S1").add_edge("T2", "CT1")
    a.site("S2").add_edge("CT1", "T2")
    configs["fig1a: T2->CT1 | CT1->T2"] = (a, True)

    b = GlobalSG()
    b.site("S1").add_path("T1", "CT1", "T2")
    b.site("S2").add_edge("T2", "CT1")
    configs["fig1b: T1->CT1->T2 | T2->CT1"] = (b, True)

    c = GlobalSG()
    c.site("S1").add_edge("T2", "CT1")
    c.site("S2").add_edge("CT1", "T3")
    c.site("S3").add_edge("T3", "T2")
    configs["fig1c: 3 sites, 2 regulars"] = (c, True)

    d = GlobalSG()
    d.site("S1").add_path("T2", "L1", "CT1")
    d.site("S2").add_edge("CT1", "T2")
    configs["fig1d: through local txn"] = (d, True)

    e = GlobalSG()  # Example-1-style shortcut: benign
    e.site("S1").add_edge("CT1", "T2")
    e.site("S2").add_path("CT1", "T2", "CT3")
    e.site("S3").add_edge("CT3", "CT1")
    configs["example1: CT-only minimal cycle"] = (e, False)

    f = GlobalSG()  # acyclic
    f.site("S1").add_edge("T1", "T2")
    f.site("S2").add_edge("T2", "T3")
    configs["acyclic"] = (f, False)

    return configs


def test_fig1_table():
    rows = []
    for name, (gsg, expected) in fig1_configurations().items():
        cycle = find_regular_cycle(gsg)
        assert (cycle is not None) == expected, name
        rows.append(ExperimentResult(
            params={"configuration": name},
            measures={
                "regular_cycle": cycle is not None,
                "cycle": " -> ".join(cycle) if cycle else "-",
            },
        ))
    print()
    print(format_table(rows, title="FIG1: regular-cycle verdicts"))


@pytest.mark.parametrize("name", list(fig1_configurations()))
def test_each_configuration_verdict(name):
    gsg, expected = fig1_configurations()[name]
    assert (find_regular_cycle(gsg) is not None) == expected
