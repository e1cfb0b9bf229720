"""Parallel exploration is a pure wall-clock optimization.

The contract (see :mod:`repro.check.parallel`): ``--jobs N`` never changes
*what* the checker reports — explored counts, counterexample vectors,
violations, and choice logs are identical to the in-process search.  These
tests pin that equivalence on real configurations (clean and failing, DFS
and bounded).
"""

import dataclasses

import pytest

from repro.check.explorer import CheckConfig, CheckReport, ModelChecker
from repro.check.parallel import Runner
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
        config = dataclasses.replace(CLEAN, protocol=lambda: None, jobs=2)
        with pytest.raises(ValueError, match="picklable CheckConfig"):
            Runner(ModelChecker(config))


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

        # jobs=1 runs in-process, so every run passes through execute here
        report = ScanParity(dataclasses.replace(CLEAN, max_schedules=30)).run()
        assert report.ok
        assert report.explored == len(checked) == 30
