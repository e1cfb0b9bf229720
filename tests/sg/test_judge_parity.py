"""The forgetting judge returns the full history's verdicts.

Each run records its full history beside the pruned one
(:func:`tests.sg.judge_reference.record`), then judges both with every
criterion the oracles apply: local cycles, regular cycles (literal and
effective), reads of both ``T_i`` and ``CT_i``, and compensation write
cover.  The runs are small (3 sites × 3 keys), so the judge prunes many
times per run; forced NO votes make O2PC compensate, the marking
protocol ``none`` lets regular cycles through, local transactions
interleave, and one site crashes and restarts.
"""

import json
from pathlib import Path

import pytest

import repro.check.explorer as explorer
from repro.check.explorer import CheckConfig, ModelChecker, replay
from repro.check.oracles import run_oracles
from repro.commit.base import CommitScheme
from repro.harness.system import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.sg.judge import HistoryJudge
from repro.sim.rng import Rng
from repro.txn import SemanticOp
from repro.txn.operations import ReadOp
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from tests.sg.judge_reference import record, verdicts

#: seeded runs per scheme
RUNS = 200


def judged_run(scheme: CommitScheme, seed: int):
    rng = Rng(seed).fork("judge-parity")
    system = System(SystemConfig(
        n_sites=3, scheme=scheme, seed=seed, keys_per_site=3,
        protocol="none" if seed % 2 else "P1",
    ))
    full = record(system)
    specs = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=16, abort_probability=0.3, zipf_theta=0.5,
        min_sites=1,
    ), seed=seed).specs()
    for n in range(3):
        system.env.process(_local(
            system, f"S{rng.randint(1, 3)}", f"k{rng.randint(0, 2)}",
            2.0 + 5 * n,
        ))
    if seed % 3 == 0:
        system.failures.schedule(CrashPlan(
            rng.choice(sorted(system.sites)),
            at=rng.uniform(2.0, 20.0), duration=rng.uniform(1.0, 10.0),
        ))
    system.submit_stream(specs, arrival_mean=1.0, seed=seed)
    system.env.run(until=400.0)
    return system, full


def _local(system, site_id, key, delay):
    yield system.env.timeout(delay)
    yield system.run_local(site_id, system.next_local_id(), [
        ReadOp(key), SemanticOp("deposit", key, {"amount": 1}),
    ])


@pytest.mark.parametrize(
    "scheme", sorted(CommitScheme, key=lambda s: s.name), ids=lambda s: s.name,
)
def test_pruned_verdicts_equal_the_full_history(scheme):
    forgotten = passes = 0
    violated = 0
    for seed in range(RUNS):
        system, full = judged_run(scheme, seed)
        pruned = verdicts(system, system.global_history())
        reference = verdicts(system, full)
        assert pruned == reference, f"judge parity: {scheme.name} seed {seed}"
        forgotten += system.judge.forgotten
        passes += system.judge.passes
        violated += any(reference.values())
        run_oracles(system)  # the oracles run on what is retained
    assert passes > RUNS and forgotten > RUNS * 10
    if scheme is CommitScheme.O2PC:
        assert violated > 0  # the parity covers violations too


@pytest.fixture
def eager_judge(monkeypatch):
    """A judge that runs a pass after every operation, and once more
    before the oracles judge the finished schedule."""
    prune = HistoryJudge.prune
    init = HistoryJudge.__init__
    oracles = explorer.run_oracles

    def judged_last(system, strict=False):
        system.judge.prune()
        return oracles(system, strict=strict)

    def eager_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.budget = 0

    def eager_prune(self):
        gone = prune(self)
        self.budget = 0
        return gone

    monkeypatch.setattr(HistoryJudge, "__init__", eager_init)
    monkeypatch.setattr(HistoryJudge, "prune", eager_prune)
    monkeypatch.setattr(explorer, "run_oracles", judged_last)


CORPUS = json.loads(
    (Path(__file__).parent.parent / "check" / "corpus.json").read_text(
        encoding="utf-8",
    )
)


def corpus_verdicts():
    return [
        sorted(str(v) for v in replay(CheckConfig(
            scenario=entry["scenario"], protocol=entry["protocol"],
            seed=entry["seed"],
        ), entry["choices"]).violations)
        for entry in CORPUS
    ]


def census(scheme):
    report = ModelChecker(CheckConfig(
        scheme=scheme, protocol="P1", crashes=1, max_schedules=150,
    )).run()
    return report.explored, [
        sorted(str(v) for v in c.violations) for c in report.counterexamples
    ]


def test_an_eager_judge_replays_the_corpus_to_the_same_verdicts(
    request, monkeypatch,
):
    unpruned = corpus_verdicts()
    request.getfixturevalue("eager_judge")
    assert corpus_verdicts() == unpruned


@pytest.mark.parametrize(
    "scheme", sorted(CommitScheme, key=lambda s: s.name), ids=lambda s: s.name,
)
def test_an_eager_judge_explores_the_census_to_the_same_verdicts(
    scheme, request,
):
    unpruned = census(scheme)
    request.getfixturevalue("eager_judge")
    assert census(scheme) == unpruned
