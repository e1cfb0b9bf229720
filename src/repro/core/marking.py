"""The marking state machine of Figure 2.

With respect to a specific global transaction ``T_i``, a site is *unmarked*,
*locally-committed*, or *undone*.  The transitions (all triggered by local
events or by messages already part of 2PC — no extra messages):

=====================  ==================================  ==================
from                   trigger                             to
=====================  ==================================  ==================
unmarked               site votes to commit ``T_i``        locally-committed
unmarked               site votes to abort ``T_i``         undone
locally-committed      decision message: COMMIT            unmarked
locally-committed      decision message: ABORT             undone
undone                 UDUM condition detected             unmarked
=====================  ==================================  ==================

Any other transition is illegal and raises
:class:`~repro.errors.ProtocolViolation` — the FIG2 tests and benchmark
exercise the full matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ProtocolViolation


class Marking(enum.Enum):
    """Marking of a site with respect to one global transaction."""

    UNMARKED = "unmarked"
    LOCALLY_COMMITTED = "locally-committed"
    UNDONE = "undone"


class MarkingEvent(enum.Enum):
    """Triggers of marking transitions (Figure 2 edge labels)."""

    VOTE_COMMIT = "vote-commit"
    VOTE_ABORT = "vote-abort"
    DECISION_COMMIT = "decision-commit"
    DECISION_ABORT = "decision-abort"
    UDUM = "udum"


#: the legal transition relation of Figure 2
TRANSITIONS: dict[tuple[Marking, MarkingEvent], Marking] = {
    (Marking.UNMARKED, MarkingEvent.VOTE_COMMIT): Marking.LOCALLY_COMMITTED,
    (Marking.UNMARKED, MarkingEvent.VOTE_ABORT): Marking.UNDONE,
    (Marking.LOCALLY_COMMITTED, MarkingEvent.DECISION_COMMIT): Marking.UNMARKED,
    (Marking.LOCALLY_COMMITTED, MarkingEvent.DECISION_ABORT): Marking.UNDONE,
    (Marking.UNDONE, MarkingEvent.UDUM): Marking.UNMARKED,
}


@dataclass
class MarkingStateMachine:
    """Markings of one site with respect to every global transaction.

    The default state for an unseen transaction is UNMARKED (the paper's
    initial state), so the machine needs no registration step.
    """

    site_id: str
    _states: dict[str, Marking] = field(default_factory=dict)
    #: audit log of transitions: (time-ordering index implied by position);
    #: under a judge, only those of transactions it still retains
    transitions: list[tuple[str, Marking, MarkingEvent, Marking]] = field(
        default_factory=list
    )
    #: every transition ever fired, counted per (event, new marking)
    counts: dict[tuple[MarkingEvent, Marking], int] = field(
        default_factory=dict
    )

    def state(self, txn_id: str) -> Marking:
        """Current marking with respect to ``txn_id``."""
        return self._states.get(txn_id, Marking.UNMARKED)

    def fire(self, txn_id: str, event: MarkingEvent) -> Marking:
        """Apply a transition; returns the new marking.

        Raises :class:`ProtocolViolation` for transitions not in Figure 2.
        """
        current = self.state(txn_id)
        try:
            new = TRANSITIONS[(current, event)]
        except KeyError:
            raise ProtocolViolation(
                f"site {self.site_id}: illegal marking transition "
                f"{current.value} --{event.value}--> ? (txn {txn_id})"
            ) from None
        if new is Marking.UNMARKED:
            self._states.pop(txn_id, None)
        else:
            self._states[txn_id] = new
        self.transitions.append((txn_id, current, event, new))
        self.counts[(event, new)] = self.counts.get((event, new), 0) + 1
        return new

    def keep(self, txn_ids: set[str]) -> None:
        """Drop the transitions of every transaction not in ``txn_ids``
        (the judge forgot it); :attr:`counts` still counts them."""
        self.transitions = [t for t in self.transitions if t[0] in txn_ids]

    def restore(self, txn_id: str, marking: Marking) -> None:
        """Re-seed a marking re-derived from durable state after a crash.

        Crash recovery re-establishes markings from the WAL's transaction
        classification rather than by re-firing Figure 2 events, so this
        bypasses the transition relation and leaves no audit entry.  A
        no-op when the machine already holds that marking (the simulator's
        directory survives a modeled crash; a real daemon's does not).
        """
        if self.state(txn_id) is marking:
            return
        if marking is Marking.UNMARKED:
            self._states.pop(txn_id, None)
        else:
            self._states[txn_id] = marking

    def undone_set(self) -> set[str]:
        """Transactions this site is undone with respect to (sitemarks)."""
        return {
            t for t, m in self._states.items() if m is Marking.UNDONE
        }

    def locally_committed_set(self) -> set[str]:
        """Transactions this site is locally-committed with respect to."""
        return {
            t for t, m in self._states.items()
            if m is Marking.LOCALLY_COMMITTED
        }
