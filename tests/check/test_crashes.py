"""Crash enumerator: significant points, budgets, protocol resilience."""

import json

from repro.check.crashes import SIGNIFICANT_KINDS
from repro.check.explorer import CheckConfig, ModelChecker
from repro.check.scheduler import ChoicePolicy


def _crash_vector(config, label_fragment):
    """The choice vector that takes the first crash candidate whose label
    contains ``label_fragment`` (e.g. ``"S1@comp.start"``)."""
    base = ModelChecker(config).execute(ChoicePolicy())
    for index, choice in enumerate(base.log):
        if choice.kind != "crash":
            continue
        for candidate, label in enumerate(choice.labels):
            if candidate != 0 and label_fragment in label:
                return tuple(c.chosen for c in base.log[:index]) + (candidate,)
    raise AssertionError(
        f"no crash candidate matching {label_fragment!r} in "
        f"{[c.labels for c in base.log if c.kind == 'crash']}"
    )


def _events(outcome, kind):
    return [
        json.loads(line)
        for line in outcome.system.obs.jsonl().splitlines()
        if json.loads(line).get("kind") == kind
    ]


class TestCrashChoicePoints:
    def test_budget_zero_opens_no_crash_points(self):
        outcome = ModelChecker(CheckConfig(
            scenario="conflict", protocol="P1", crashes=0,
        )).execute(ChoicePolicy())
        assert all(c.kind != "crash" for c in outcome.log)

    def test_significant_events_open_crash_points(self):
        outcome = ModelChecker(CheckConfig(
            scenario="conflict", protocol="P1", crashes=1,
        )).execute(ChoicePolicy())
        crash_points = [c for c in outcome.log if c.kind == "crash"]
        assert crash_points
        for choice in crash_points:
            assert choice.labels[0].startswith("continue@")
            point = choice.labels[0].split("@", 1)[1]
            assert point.split(":", 1)[0] in SIGNIFICANT_KINDS

    def test_candidates_cover_sites_and_coordinators(self):
        # A coordinator lives in its transaction's first site, so the
        # sites are the whole target list: crashing S1 crashes T1's
        # coordinator, crashing S2 T2's.
        outcome = ModelChecker(CheckConfig(
            scenario="conflict", protocol="P1", crashes=1,
        )).execute(ChoicePolicy())
        first = next(c for c in outcome.log if c.kind == "crash")
        targets = [
            label.split(":", 1)[1].split("@", 1)[0]
            for label in first.labels[1:]
        ]
        assert targets == ["S1", "S2"]


class TestInjectedCrashes:
    def test_crash_in_exposure_window_is_survived_by_p1(self):
        """Crash S1 right after it locally commits T1 — the paper's
        motivating exposure-window failure — and let it recover."""
        config = CheckConfig(scenario="conflict", protocol="P1", crashes=1)
        vector = _crash_vector(config, "S1@subtxn.local_commit:T1")
        outcome = ModelChecker(config).execute(ChoicePolicy(vector))
        crashes = _events(outcome, "site.crash")
        recoveries = _events(outcome, "site.recover")
        assert [e["site_id"] for e in crashes] == ["S1"]
        assert [e["site_id"] for e in recoveries] == ["S1"]
        assert outcome.ok, [str(v) for v in outcome.violations]

    def test_coordinator_crash_is_survived(self):
        """Crash S1, T1's coordinating site, after T1's votes and before
        its decision is logged: the restarted S1 presumes abort."""
        config = CheckConfig(scenario="conflict", protocol="P1", crashes=1)
        vector = _crash_vector(config, "S1@txn.vote:T1")
        outcome = ModelChecker(config).execute(ChoicePolicy(vector))
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert {o.txn_id for o in outcome.system.outcomes} == {"T1", "T2"}
        coord = [
            (r.record_type.value, r.payload.get("decision"))
            for r in outcome.system.sites["S1"].wal
            if r.txn_id == "coord.T1"
        ]
        assert coord == [
            ("COORD_BEGIN", None), ("DECIDE", "ABORT"), ("COORD_END", None),
        ]

    def test_a_logged_decision_is_resent_after_the_crash(self):
        """Crash S1 once T1's DECIDE is logged: the restarted S1 re-sends
        it, and every site applies that one decision."""
        config = CheckConfig(scenario="conflict", protocol="P1", crashes=1)
        vector = _crash_vector(config, "S1@txn.decision:T1")
        outcome = ModelChecker(config).execute(ChoicePolicy(vector))
        assert outcome.ok, [str(v) for v in outcome.violations]
        decides = [
            r for r in outcome.system.sites["S1"].wal
            if r.txn_id == "coord.T1" and r.record_type.value == "DECIDE"
        ]
        assert len(decides) == 1
        for participant in outcome.system.participants.values():
            state = participant.subtxns.get("T1")
            if state is not None and state.decided is not None:
                assert state.decided == decides[0].payload["decision"]

    def test_budget_limits_injected_crashes(self):
        config = CheckConfig(scenario="conflict", protocol="P1", crashes=1)
        vector = _crash_vector(config, "crash:")
        outcome = ModelChecker(config).execute(ChoicePolicy(vector))
        # After the single crash the budget is spent: no further crash
        # choice points may appear in the log.
        crash_choices = [c for c in outcome.log if c.kind == "crash"]
        taken = [c for c in crash_choices if c.chosen != 0]
        assert len(taken) == 1
        assert crash_choices[-1] is taken[0]
        assert len(_events(outcome, "site.crash")) == 1



CRASH_ONCE = CheckConfig(scenario="conflict", protocol="P1", crashes=1)


def _unrecorded(vector):
    checker = ModelChecker(CRASH_ONCE)
    checker.recording = False
    return checker.execute(ChoicePolicy(vector)).system


class TestBusOwnership:
    """The injector turns the bus on for itself and off when it is done."""

    def test_unrecorded_run_turns_the_bus_off_after_the_crash(self):
        vector = _crash_vector(CRASH_ONCE, "S1@subtxn.local_commit:T1")
        system = _unrecorded(vector)
        assert system.sites["S1"].crash_count == 1
        assert not system.env.bus.enabled
        assert not system.env.bus.has_subscribers
        assert system.events() == []

    def test_bus_stays_on_while_no_crash_is_taken(self):
        system = _unrecorded(())
        assert system.env.bus.enabled and system.env.bus.has_subscribers
        # the injector's bus is not the system's recorder: metrics come
        # from the logs, not from an empty stream
        assert not system.obs.enabled
        assert system.metrics().committed == 1

    def test_recorder_keeps_the_bus_on_after_the_crash(self):
        vector = _crash_vector(CRASH_ONCE, "S1@subtxn.local_commit:T1")
        system = ModelChecker(CRASH_ONCE).execute(ChoicePolicy(vector)).system
        assert system.env.bus.enabled and system.obs.enabled
        kinds = [event.kind for event in system.events()]
        # recording continues past the crash the injector retired at
        assert "site.crash" in kinds and kinds[-1] == "txn.end"
