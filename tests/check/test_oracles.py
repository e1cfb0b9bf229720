"""Oracle layer: verdicts on healthy and broken runs; no history mutation."""

from repro.check.explorer import CheckConfig, ModelChecker
from repro.check.oracles import run_oracles
from repro.check.scheduler import ChoicePolicy


def _finished_run(protocol):
    return ModelChecker(
        CheckConfig(scenario="conflict", protocol=protocol)
    ).execute(ChoicePolicy())


class TestVerdicts:
    def test_healthy_run_has_no_violations(self):
        outcome = _finished_run("P1")
        assert run_oracles(outcome.system) == []

    def test_exposure_race_trips_serializability_and_atomicity(self):
        outcome = _finished_run("none")
        oracles = {v.oracle for v in run_oracles(outcome.system)}
        assert "serializability" in oracles
        assert "atomicity" in oracles

    def test_outcome_without_spec_is_an_atomicity_violation(self):
        # The exposure check reads each outcome's sites from System.specs;
        # an outcome it cannot place is reported, never skipped.
        system = _finished_run("P1").system
        txn_id = system.outcomes[0].txn_id
        del system.specs[txn_id]
        assert [str(v) for v in run_oracles(system)] == [
            f"[atomicity] {txn_id} has an outcome but no spec",
        ]

    def test_strict_mode_is_at_least_as_harsh(self):
        outcome = _finished_run("none")
        effective = run_oracles(outcome.system, strict=False)
        strict = run_oracles(outcome.system, strict=True)
        assert len(strict) >= len(effective)


class TestRecoveryOracleIsPure:
    def test_oracle_does_not_mutate_site_logs(self):
        """restart() appends ABORT records for losers; the oracle must run
        on a clone and leave the judged history untouched."""
        outcome = _finished_run("P1")
        before = {
            sid: len(site.wal)
            for sid, site in outcome.system.sites.items()
        }
        run_oracles(outcome.system)
        run_oracles(outcome.system)
        after = {
            sid: len(site.wal)
            for sid, site in outcome.system.sites.items()
        }
        assert before == after

    def test_oracle_verdicts_are_idempotent(self):
        outcome = _finished_run("none")
        first = run_oracles(outcome.system)
        second = run_oracles(outcome.system)
        assert first == second
