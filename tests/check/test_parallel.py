"""Parallel exploration is a pure wall-clock optimization.

The contract (see :mod:`repro.check.parallel`): ``--jobs N`` and prefix
reuse never change *what* the checker reports — explored counts,
counterexample vectors, violations, and choice logs are identical to the
serial, no-reuse search.  These tests pin that equivalence on real
configurations (clean and failing, DFS and bounded) plus the unit behavior
of the wave planner and the fork gate.
"""

import dataclasses

import pytest

from repro.check import parallel
from repro.check.explorer import CheckConfig, CheckReport, ModelChecker
from repro.check.parallel import ParallelRunner, plan_groups
from tests.sg.scan_reference import verify_conflict_index


def _fingerprint(report: CheckReport):
    """Everything in a report except wall-clock time."""
    return (
        report.explored,
        report.exhausted,
        report.first_run_choice_points,
        [
            (ce.choices, ce.violations, ce.log, ce.jsonl)
            for ce in report.counterexamples
        ],
    )


def _run(config: CheckConfig, **overrides) -> CheckReport:
    return ModelChecker(dataclasses.replace(config, **overrides)).run()


CLEAN = CheckConfig(
    scenario="conflict", protocol="P1", depth=10, crashes=1,
    max_schedules=80,
)
FAILING = CheckConfig(
    scenario="conflict", protocol="none", depth=8, max_schedules=40,
)


class TestJobsDeterminism:
    def test_jobs4_matches_jobs1_clean_dfs(self):
        serial = _run(CLEAN, jobs=1)
        sharded = _run(CLEAN, jobs=4)
        assert serial.ok
        assert _fingerprint(sharded) == _fingerprint(serial)

    def test_jobs4_matches_jobs1_with_counterexamples(self):
        serial = _run(FAILING, jobs=1)
        sharded = _run(FAILING, jobs=4)
        assert not serial.ok  # unprotected protocol must fail
        assert _fingerprint(sharded) == _fingerprint(serial)

    def test_jobs4_matches_jobs1_bounded(self):
        config = dataclasses.replace(CLEAN, bounded=40, seed=7)
        serial = _run(config, jobs=1)
        sharded = _run(config, jobs=4)
        assert _fingerprint(sharded) == _fingerprint(serial)

    def test_unpicklable_config_fails_loudly(self):
        with pytest.raises(ValueError, match="picklable CheckConfig"):
            ParallelRunner(lambda: None, jobs=2)


class TestPrefixReuse:
    def test_forked_siblings_match_rerun_siblings(self, monkeypatch):
        """Force the fork path (the gate normally skips these cheap runs)
        and demand records identical to from-scratch re-execution."""
        if not parallel._FORK_AVAILABLE:
            pytest.skip("os.fork unavailable")
        monkeypatch.setattr(parallel, "FORK_MIN_RUN_SECONDS", 0.0)
        forked = _run(CLEAN, prefix_reuse=True)
        rerun = _run(CLEAN, prefix_reuse=False)
        assert _fingerprint(forked) == _fingerprint(rerun)

    def test_forked_counterexamples_survive_the_pipe(self, monkeypatch):
        if not parallel._FORK_AVAILABLE:
            pytest.skip("os.fork unavailable")
        monkeypatch.setattr(parallel, "FORK_MIN_RUN_SECONDS", 0.0)
        forked = _run(FAILING, prefix_reuse=True)
        rerun = _run(FAILING, prefix_reuse=False)
        assert not rerun.ok
        assert _fingerprint(forked) == _fingerprint(rerun)


class TestScanParity:
    def test_index_matches_scan_on_clean_schedules(self):
        """The conflict index behind ``SG.from_history`` agrees with the
        pairwise-scan reference on every explored schedule's history."""
        checked = []

        class ScanParity(ModelChecker):
            def execute(self, policy):
                outcome = super().execute(policy)
                verify_conflict_index(outcome.system.global_history())
                checked.append(outcome.vector)
                return outcome

        # in-process and unforked, so every run passes through execute here
        config = dataclasses.replace(
            CLEAN, max_schedules=30, prefix_reuse=False,
        )
        report = ScanParity(config).run()
        assert report.ok
        assert report.explored == len(checked) == 30


class TestPlanGroups:
    def test_consecutive_siblings_share_a_group(self):
        wave = [(0, 1), (0, 2), (0, 3)]
        assert plan_groups(wave) == [((0,), [1, 2, 3])]

    def test_stem_change_starts_a_new_group(self):
        wave = [(0, 1), (0, 2), (1, 0), (0, 3)]
        assert plan_groups(wave) == [
            ((0,), [1, 2]),
            ((1,), [0]),
            ((0,), [3]),
        ]

    def test_root_vector_stays_alone(self):
        assert plan_groups([(), (1,)]) == [((), []), ((), [1])]

    def test_flattened_order_is_wave_order(self):
        wave = [(2, 0), (2, 1), (0, 0, 5), (0, 0, 6), (3,)]
        flattened = []
        for stem, alts in plan_groups(wave):
            if not alts:
                flattened.append(stem)
            flattened.extend(stem + (alt,) for alt in alts)
        assert flattened == wave
