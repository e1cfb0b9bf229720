"""FIG2 — Figure 2: the marking state machine.

Regenerates the transition table (five legal edges, ten illegal pairs) and
checks the machine against it.
"""

import pytest

from repro.core import Marking, MarkingEvent, MarkingStateMachine
from repro.core.marking import TRANSITIONS
from repro.errors import ProtocolViolation
from repro.harness import ExperimentResult, format_table


def test_fig2_transition_table():
    rows = []
    for state in Marking:
        for event in MarkingEvent:
            target = TRANSITIONS.get((state, event))
            rows.append(ExperimentResult(
                params={"from": state.value, "event": event.value},
                measures={"to": target.value if target else "(illegal)"},
            ))
    print()
    print(format_table(rows, title="FIG2: marking transitions"))
    legal = [r for r in rows if r.measures["to"] != "(illegal)"]
    assert len(legal) == 5


def test_fig2_machine_agrees_with_table():
    for state, event in [
        (s, e) for s in Marking for e in MarkingEvent
    ]:
        machine = MarkingStateMachine("S1")
        if state is Marking.LOCALLY_COMMITTED:
            machine.fire("T1", MarkingEvent.VOTE_COMMIT)
        elif state is Marking.UNDONE:
            machine.fire("T1", MarkingEvent.VOTE_ABORT)
        expected = TRANSITIONS.get((state, event))
        if expected is None:
            with pytest.raises(ProtocolViolation):
                machine.fire("T1", event)
        else:
            assert machine.fire("T1", event) is expected
