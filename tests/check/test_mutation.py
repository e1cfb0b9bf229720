"""Mutation testing: a deliberately broken marking rule must be caught.

This is the checker checking itself: if neutering P1's R1 check and
vote-time validation does *not* produce a counterexample, the oracles (or
the scenarios) have lost their teeth.  The same goes for a participant
whose marking transitions leave a mark behind that no rule can clear.
"""

import pytest

from repro.check.explorer import CheckConfig, ModelChecker, replay
from repro.check.trace import render_counterexample
from repro.commit.base import CommitScheme
from repro.commit.coordinator import Coordinator
from repro.commit.participant import Participant
from repro.core.protocols import CheckResult, P1Protocol
from repro.protocols import ENGINES, EngineSpec


class _BrokenP1(P1Protocol):
    """P1 with rule R1 and the vote-time revalidation disabled.

    ``merge_marks`` (and the marking transitions) stay intact, so the
    mutation models a protocol that *tracks* marks but never *acts* on
    them — exactly the kind of bug the checker exists to catch.
    """

    def check_spawn(self, txn_id, site_id, transmarks):
        return CheckResult(ok=True)

    def validate_at_vote(self, txn_id, site_id, transmarks):
        return True


def _config(**overrides):
    defaults = dict(
        scenario="conflict", protocol=_BrokenP1, depth=6, max_schedules=20,
    )
    defaults.update(overrides)
    return CheckConfig(**defaults)


class TestMutationIsCaught:
    def test_broken_p1_produces_counterexamples(self):
        report = ModelChecker(_config()).run()
        assert not report.ok
        oracles = {
            v.oracle
            for ce in report.counterexamples
            for v in ce.violations
        }
        assert "serializability" in oracles

    def test_intact_p1_is_clean_on_the_same_search(self):
        report = ModelChecker(_config(protocol="P1")).run()
        assert report.ok

    def test_counterexample_replays_byte_for_byte(self):
        report = ModelChecker(_config()).run()
        counterexample = report.counterexamples[0]
        outcome = replay(_config(), counterexample.choices)
        assert outcome.violations == counterexample.violations
        assert outcome.system.obs.jsonl() == counterexample.jsonl

    def test_counterexample_renders_a_trace(self):
        report = ModelChecker(_config()).run()
        text = render_counterexample(report.counterexamples[0])
        assert "replay vector:" in text
        assert "regular cycle" in text
        assert "comp.start" in text  # the compensation is on the trace


class _SkipsCompensatedMark(Participant):
    """Forgets R2's undone mark after a compensation (``CT_ik``) runs."""

    def _mark(self, transition, txn_id):
        if transition != self.marking.on_decision_abort_compensated:
            super()._mark(transition, txn_id)


class _NoVoterMarksUnderEveryScheme(Participant):
    """Lets the NO vote's undone mark past the O2PC gate: under 2PL the
    NO voter is marked while its prepared peers never are."""

    def _mark(self, transition, txn_id):
        if transition == self.marking.on_vote_abort:
            transition(txn_id, self.site.site_id)
        else:
            super()._mark(transition, txn_id)


class TestStuckMarkIsCaught:
    @pytest.fixture(params=[
        (CommitScheme.O2PC, _SkipsCompensatedMark),
        (CommitScheme.TWO_PL, _NoVoterMarksUnderEveryScheme),
    ], ids=["o2pc-skips-compensated-mark", "two_pl-no-voter-marks"])
    def mutant(self, request, monkeypatch):
        scheme, participant = request.param
        monkeypatch.setitem(
            ENGINES, scheme, EngineSpec(scheme, Coordinator, participant),
        )
        return _config(protocol="P1", scheme=scheme)

    def test_marking_oracle_catches_it_with_a_replayable_vector(self, mutant):
        report = ModelChecker(mutant).run()
        assert not report.ok
        counterexample = report.counterexamples[0]
        assert any(
            v.oracle == "marking" and "ended a quiesced run undone" in v.detail
            for v in counterexample.violations
        )
        outcome = replay(mutant, counterexample.choices)
        assert outcome.violations == counterexample.violations
        assert outcome.system.obs.jsonl() == counterexample.jsonl
