"""Exploration records nothing, and recording never changes a run.

The explorer runs every schedule with observability off and records only
a failing one, by running its choice vector again (see
:mod:`repro.check.parallel`).  That is sound only if recording is passive:
no ``if bus.enabled:`` site may change protocol state, draw from an RNG or
move the clock.  The parity tests prove it on each scheme's ``--smoke``
configuration: the same vectors, executed with recording on, take the same
choices and get the same verdicts.  The exact counts pin what an explored
schedule still publishes (only the crash enumerator's events, until its
budget is spent) and that nothing is recorded without a counterexample.
"""

import dataclasses

import pytest

from repro.check.explorer import CheckConfig, ModelChecker
from repro.check.scheduler import ChoicePolicy
from repro.commit.base import CommitScheme
from repro.obs.events import EventBus, EventLog

#: ``repro check --smoke``'s configuration, first 200 schedules
SMOKE = CheckConfig(
    scenario="conflict", protocol="P1", depth=14, crashes=2,
    max_schedules=200,
)
#: an unprotected configuration whose schedules fail the oracles
FAILING = CheckConfig(
    scenario="conflict", protocol="none", depth=8, crashes=1,
    max_schedules=40,
)


class Capturing(ModelChecker):
    """Keeps each unrecorded run's prefix and outcome."""

    def __post_init__(self):
        super().__post_init__()
        self.explored = []

    def execute(self, policy):
        outcome = super().execute(policy)
        if not self.recording:
            assert not outcome.system.obs.enabled
            assert outcome.system.events() == []
            self.explored.append((policy.prefix, outcome))
        return outcome


def _fingerprint(outcome):
    return (
        outcome.vector,
        [(c.kind, c.labels, c.chosen, c.branch) for c in outcome.log],
        outcome.violations,
    )


@pytest.mark.parametrize("config", [
    *(
        pytest.param(dataclasses.replace(SMOKE, scheme=scheme), id=scheme.name)
        for scheme in (
            CommitScheme.TWO_PL, CommitScheme.O2PC, CommitScheme.PAXOS,
            CommitScheme.SHORT,
        )
    ),
    pytest.param(FAILING, id="failing"),
    # no crash enumerator: the bus stays off for the whole explored run
    pytest.param(dataclasses.replace(SMOKE, crashes=0), id="no-crashes"),
])
def test_recording_does_not_change_an_explored_schedule(config):
    checker = Capturing(config)
    report = checker.run()
    assert len(checker.explored) == report.explored
    assert report.explored == config.max_schedules or report.exhausted
    recorder = ModelChecker(config)
    for prefix, explored in checker.explored:
        recorded = recorder.execute(ChoicePolicy(prefix))
        assert recorded.system.obs.enabled
        assert _fingerprint(recorded) == _fingerprint(explored)
    assert report.ok == (config is not FAILING)


def _count(monkeypatch):
    counts = {"published": 0, "recorded": 0}
    publish, record = EventBus.publish, EventLog.__call__

    def counted_publish(bus, event):
        counts["published"] += 1
        return publish(bus, event)

    def counted_record(log, event):
        counts["recorded"] += 1
        return record(log, event)

    monkeypatch.setattr(EventBus, "publish", counted_publish)
    monkeypatch.setattr(EventLog, "__call__", counted_record)
    return counts


#: name -> (config, schedules, counterexamples, bus publishes) of one
#: seeded search.  They moved (from 20 821 publishes, and from 16
#: counterexamples in 3 797) when a coordinator crash became a crash of its
#: site: the candidates are the two sites, no longer the sites and the two
#: ``coord.*`` endpoints; a crashed site also loses its participant,
#: orphans remote subtransactions and rebuilds its coordinators from the
#: WAL; and a site's crash is a point for the second crash.  So a crash
#: schedule publishes more and races differently.
PINNED = {
    "smoke": (dataclasses.replace(SMOKE, seed=1, max_schedules=300),
              300, 0, 22921),
    "failing": (dataclasses.replace(FAILING, seed=1), 40, 4, 2482),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_search_counts_are_pinned(name, monkeypatch):
    """Exact, so they move only when a run publishes different events.
    While exploration still recorded, every explored schedule published
    and recorded its whole run: 27 351 events for ``smoke`` and 3 836 for
    ``failing``."""
    config, schedules, failures, published = PINNED[name]
    counts = _count(monkeypatch)
    report = ModelChecker(config).run()
    assert report.explored == schedules
    assert len(report.counterexamples) == failures
    assert counts["published"] == published
    # Only a counterexample's replay records, and it records its JSONL.
    assert counts["recorded"] == sum(
        len(ce.jsonl.splitlines()) for ce in report.counterexamples
    )
