"""ABLATE-P1 — ablation of the two P1 implementation choices.

DESIGN.md §5 documents two additions to the paper's literal P1:

* the **quiescence clearing rule** (UDUM0-derived: clear a transaction's
  marks once every overlapping transaction has terminated and all its
  compensations ran), complementing UDUM1 whose witnesses starve under
  abort churn;
* the **eager full-rule check** at spawn (the coordinator knows the site
  list, so doomed transactions are rejected before wasting execution and
  exposing updates).

The ablation quantifies each: without quiescence clearing, marks persist
and commits collapse; correctness holds in every cell (the additions are
performance relief, not safety valves — the safety comes from the strict
checks themselves).
"""

import pytest

from repro.commit import CommitScheme
from repro.harness import (
    ExperimentResult,
    System,
    SystemConfig,
    format_table,
)
from repro.sg import find_regular_cycle
from repro.workload import WorkloadConfig, WorkloadGenerator


def run_once(quiescence, eager, seed):
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, protocol="P1",
        n_sites=4, keys_per_site=10,
        quiescence_clearing=quiescence, p1_eager_rule=eager,
    ))
    gen = WorkloadGenerator(
        system,
        WorkloadConfig(
            n_transactions=60, abort_probability=0.1,
            read_fraction=0.4, arrival_mean=2.5, zipf_theta=0.4,
        ),
        seed=seed,
    )
    elapsed = gen.run()
    metrics = system.metrics(elapsed)
    violated = find_regular_cycle(
        system.global_sg(), system.effective_regular_nodes()
    ) is not None
    cleared = len(system.directory.quiescence_log)
    return metrics, violated, cleared


@pytest.fixture(scope="module")
def ablation():
    rows = []
    for quiescence in (True, False):
        for eager in (True, False):
            results = [run_once(quiescence, eager, s) for s in (1, 2, 3)]
            rows.append(ExperimentResult(
                params={"quiescence": quiescence, "eager_rule": eager},
                measures={
                    "committed": sum(m.committed for m, _, _ in results) / 3,
                    "rejections": sum(m.rejections for m, _, _ in results) / 3,
                    "quiescence_clears": sum(c for _, _, c in results) / 3,
                    "violations": sum(v for _, v, _ in results),
                },
            ))
    return rows


def test_ablation_table(ablation):
    print()
    print(format_table(
        ablation, title="ABLATE-P1: quiescence clearing / eager rule",
    ))


def test_all_variants_sound(ablation):
    """Neither addition is load-bearing for safety."""
    for row in ablation:
        assert row.measures["violations"] == 0


def test_quiescence_clearing_restores_throughput(ablation):
    with_q = sum(
        r.measures["committed"] for r in ablation if r.params["quiescence"]
    )
    without_q = sum(
        r.measures["committed"] for r in ablation
        if not r.params["quiescence"]
    )
    assert with_q > without_q
