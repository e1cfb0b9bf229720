"""The component-restricted regular-cycle judge equals the full-closure one.

``find_regular_cycle`` closes only the nontrivial strongly connected
components of the union graph that hold a candidate; the judge it replaced
(``tests/sg/cycle_reference.py``) closes every site's whole local SG.  The
exactness argument is docs/THEORY.md §4; these tests demand the identical
return value — the same cycle, or None — on random multi-site graphs, on
every history of a smoke-sized checker exploration per scheme, and on the
paper's fixtures.  A seeded mutation shows the random set has teeth, and a
structural guard pins that an acyclic union graph builds no closure.
"""

import random

import pytest

import repro.sg.cycles as cycles
from repro.check.explorer import CheckConfig, ModelChecker
from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.sg import GlobalSG, find_regular_cycle, is_serializable
from repro.sg.paths import SegmentGraph
from repro.workload import WorkloadConfig, WorkloadGenerator
from tests.sg.cycle_reference import find_regular_cycle_reference
from tests.sg.figures import add_path, union_edges
from tests.sg.judge_reference import record
from tests.sg.test_example1 import example1

GLOBALS = [f"T{i}" for i in range(1, 6)]
POOL = GLOBALS + [f"CT{i}" for i in range(1, 5)] + ["L1", "L2"]


def random_gsg(rng: random.Random) -> GlobalSG:
    """2–4 sites; each orders a random subset of T/CT/L nodes, adds forward
    edges in that order, and now and then a local back edge."""
    gsg = GlobalSG()
    for s in range(rng.randint(2, 4)):
        sg = gsg.site(f"S{s}")
        order = rng.sample(POOL, rng.randint(2, 6))
        for node in order:
            sg.add_node(node)
        for i, src in enumerate(order):
            for dst in order[i + 1:]:
                if rng.random() < 0.4:
                    sg.add_edge(src, dst)
        if len(order) > 2 and rng.random() < 0.1:
            sg.add_edge(order[-1], order[0])
    return gsg


def random_cases(count: int, seed: int = 31):
    rng = random.Random(seed)
    for _ in range(count):
        gsg = random_gsg(rng)
        regular = None
        if rng.random() < 0.5:
            regular = {t for t in GLOBALS if rng.random() < 0.6}
        yield gsg, regular


def mismatches(judge, cases) -> tuple[int, int]:
    """(cases where ``judge`` differs from the reference, cases with a
    regular cycle)."""
    differ = cyclic = 0
    for gsg, regular in cases:
        expected = find_regular_cycle_reference(gsg, regular)
        cyclic += expected is not None
        differ += judge(gsg, regular) != expected
    return differ, cyclic


def fig1_fixtures() -> list[GlobalSG]:
    """The Figure 1 shapes of ``tests/sg/test_fig1.py`` plus its benign
    variants, as site → local paths."""
    shapes = [
        {"S1": [("T2", "CT1")], "S2": [("CT1", "T2")]},
        {"S1": [("T1", "CT1", "T2")], "S2": [("T2", "CT1")]},
        {"S1": [("T2", "CT1")], "S2": [("CT1", "T3")], "S3": [("T3", "T2")]},
        {"S1": [("T2", "L1", "CT1")], "S2": [("CT1", "T2")]},
        {"S1": [("T1", "T2")], "S2": [("T2", "T1")]},
        {"S1": [("CT1", "L1", "CT2")], "S2": [("CT2", "CT1")]},
        {"S1": [("CT1", "T9")], "S2": [("CT1", "T9", "CT2")],
         "S3": [("CT2", "CT1")]},
    ]
    graphs = []
    for shape in shapes:
        gsg = GlobalSG()
        for site, paths in shape.items():
            for path in paths:
                add_path(gsg.site(site), *path)
        graphs.append(gsg)
    return graphs


class TestParity:
    def test_random_multisite_graphs(self):
        differ, cyclic = mismatches(find_regular_cycle, random_cases(2400))
        assert differ == 0
        assert cyclic >= 200, "the random set must exercise regular cycles"

    def test_paper_fixtures(self):
        graphs = [example1()] + fig1_fixtures()
        for gsg in graphs:
            for regular in (None, set(), {"T2"}):
                assert find_regular_cycle(gsg, regular) == (
                    find_regular_cycle_reference(gsg, regular)
                )
        assert [find_regular_cycle(g) is None for g in graphs] == [
            True, False, False, False, False, False, True, True,
        ]

    @pytest.mark.parametrize("scheme", list(CommitScheme), ids=lambda s: s.name)
    def test_smoke_exploration_histories(self, scheme):
        """Every history of a ``check --smoke``-sized exploration (the
        preset's scenario, protocol, depth and crash budget), judged both
        ways with the effective and the literal regular set."""
        judged = []

        class JudgeParity(ModelChecker):
            def execute(self, policy):
                outcome = super().execute(policy)
                system = outcome.system
                gsg = system.global_sg()
                for regular in (system.effective_regular_nodes(gsg), None):
                    judged.append(find_regular_cycle(gsg, regular) == (
                        find_regular_cycle_reference(gsg, regular)
                    ))
                return outcome

        smoke = CheckConfig(
            scenario="conflict", protocol="P1", scheme=scheme,
            depth=14, crashes=2, max_schedules=1500,
        )
        report = JudgeParity(smoke).run()
        assert report.ok
        assert len(judged) == 2 * report.explored >= 2 * 1000
        assert all(judged)

    def test_unprotected_exploration_finds_the_same_cycles(self):
        judged = []

        class JudgeParity(ModelChecker):
            def execute(self, policy):
                outcome = super().execute(policy)
                gsg = outcome.system.global_sg()
                expected = find_regular_cycle_reference(gsg)
                judged.append((expected, find_regular_cycle(gsg)))
                return outcome

        config = CheckConfig(
            scenario="conflict", protocol="none", depth=8, max_schedules=200,
        )
        JudgeParity(config).run()
        assert any(expected is not None for expected, _ in judged)
        assert all(expected == found for expected, found in judged)


class TestMutation:
    def test_closing_one_site_is_caught(self, monkeypatch):
        """Seeded mutation: close each component inside the lowest site
        that holds one of its members only.  Cross-site segments vanish,
        and the random parity set must notice."""

        def one_site_graph(gsg, within):
            site = min(s for s, sg in gsg.locals.items() if sg.nodes & within)
            return SegmentGraph(GlobalSG({site: gsg.locals[site]}), within)

        monkeypatch.setattr(cycles, "SegmentGraph", one_site_graph)
        differ, _ = mismatches(find_regular_cycle, random_cases(400))
        assert differ > 0


class TestNoClosureWhenAcyclic:
    def test_acyclic_union_builds_no_segment_graph(self, monkeypatch):
        """On a correct sim history, whose union graph is acyclic, the
        judge and ``is_serializable`` never construct a SegmentGraph."""
        system = System(SystemConfig(scheme=CommitScheme.TWO_PL, seed=4))
        full = record(system)
        WorkloadGenerator(system, WorkloadConfig(
            n_transactions=150, zipf_theta=0.8,
        ), seed=4).run()
        gsg = GlobalSG.from_history(full)

        def forbidden(*args, **kwargs):
            raise AssertionError("SegmentGraph built")

        monkeypatch.setattr(cycles, "SegmentGraph", forbidden)
        monkeypatch.setattr("repro.sg.order.SegmentGraph", forbidden)
        assert len(union_edges(gsg)) > 100
        assert find_regular_cycle(gsg) is None
        assert is_serializable(gsg)
        system.check_correctness(strict=True)
        # The guard is live: a cyclic component does build one.
        with pytest.raises(AssertionError, match="SegmentGraph built"):
            find_regular_cycle(fig1_fixtures()[0])
