"""THM1 — Theorem 1: stratification prevents regular cycles.

Graph level: on randomized structured SGs, whenever S1 or S2 holds there is
no regular cycle (the theorem), and whenever a regular cycle exists both
properties fail (the contrapositive used by the property tests).  System
level: executions under P1 never exhibit regular cycles.
"""

import pytest

from repro.harness import ExperimentResult, format_table
from repro.sg import (
    GlobalSG,
    find_regular_cycle,
    stratification_s1,
    stratification_s2,
)
from repro.sim import Rng


def random_structured_gsg(seed: int, n_globals=5, n_sites=3) -> GlobalSG:
    """Random SG under the paper's conventions (2PL order, CT after T)."""
    rng = Rng(seed)
    gsg = GlobalSG()
    aborted = {f"T{t}" for t in range(1, n_globals + 1) if rng.chance(0.4)}
    placement = {
        f"T{t}": rng.sample(
            [f"S{s}" for s in range(1, n_sites + 1)], rng.randint(1, n_sites)
        )
        for t in range(1, n_globals + 1)
    }
    for s in range(1, n_sites + 1):
        site = f"S{s}"
        order = [t for t in sorted(placement) if site in placement[t]]
        for t in list(order):
            if t in aborted:
                order.insert(
                    rng.randint(order.index(t) + 1, len(order)), f"C{t}"
                )
        sg = gsg.site(site)
        for node in order:
            sg.add_node(node)
        for t in aborted:
            if site in placement[t]:
                sg.add_edge(t, f"C{t}")
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                if rng.chance(0.5):
                    sg.add_edge(order[i], order[j])
    return gsg


@pytest.fixture(scope="module")
def census():
    counts = {"total": 0, "s1_or_s2": 0, "cycle": 0, "both": 0}
    for seed in range(400):
        gsg = random_structured_gsg(seed)
        stratified = stratification_s1(gsg) or stratification_s2(gsg)
        cyclic = find_regular_cycle(gsg) is not None
        counts["total"] += 1
        counts["s1_or_s2"] += stratified
        counts["cycle"] += cyclic
        counts["both"] += stratified and cyclic
    return counts


def test_theorem1_census_table(census):
    rows = [ExperimentResult(params={}, measures=dict(census))]
    print()
    print(format_table(
        rows, title="THM1: stratification vs regular cycles (400 random SGs)",
        precision=0,
    ))


def test_no_stratified_graph_has_a_regular_cycle(census):
    """Theorem 1: S1 ∨ S2 ⇒ no regular cycle — zero counterexamples."""
    assert census["both"] == 0


def test_census_is_not_vacuous(census):
    """The generator actually produces both populations."""
    assert census["s1_or_s2"] > 0
    assert census["cycle"] > 0
