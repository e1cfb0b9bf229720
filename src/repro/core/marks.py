"""Marking data structures: sitemarks, execution sites, UDUM1 witnesses.

The :class:`MarkingDirectory` holds, for every site, its
:class:`~repro.core.marking.MarkingStateMachine` (whose undone-set is the
paper's ``sitemarks.k``), plus the augmented structures Section 6.2 calls
for: the set of execution sites of each global transaction and, per
(transaction, site), the witnesses that executed there while the site was
undone — exactly what's needed to detect UDUM1:

    *UDUM1*: for each site in which ``T_i`` executes, there is a transaction
    that has also executed at that site while that site was undone with
    respect to ``T_i``.

The directory is one in-memory object shared by all sites of a simulation.
That is a modeling shortcut for the paper's statement that "managing these
structures does not incur any extra messages" — the information piggybacks
on messages that already flow; the simulation likewise sends nothing extra
for it (the message counters prove this in the CLAIM-MSG experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.marking import MarkingEvent, MarkingStateMachine
from repro.obs.events import EventBus, MarkApplied, MarkCleared

#: reserved data-item name for a site's marking set when it is stored "as
#: part of the database" and locked under 2PL (Section 6.2's first option —
#: the configuration that exhibits the marking-set deadlock)
MARKS_KEY = "__sitemarks__"


@dataclass
class MarkingDirectory:
    """Shared marking state for one simulation run."""

    machines: dict[str, MarkingStateMachine] = field(default_factory=dict)
    #: sites where each global transaction executed (set at spawn time)
    exec_sites: dict[str, set[str]] = field(default_factory=dict)
    #: txn -> site -> witnesses that executed there while undone wrt txn
    witnesses: dict[str, dict[str, set[str]]] = field(default_factory=dict)
    #: audit of UDUM unmarkings: (txn, enabling witness)
    udum_log: list[tuple[str, str]] = field(default_factory=list)
    #: global transactions currently in flight
    active: set[str] = field(default_factory=set)
    #: transactions that have executed at least one subtransaction
    executed_any: set[str] = field(default_factory=set)
    #: txn -> sites where its subtransactions completed execution
    executed_sites: dict[str, set[str]] = field(default_factory=dict)
    #: txn -> sites that have fired an undone marking for it
    marked_sites: dict[str, set[str]] = field(default_factory=dict)
    #: marked txn -> still-active transactions that overlapped its marking
    #: (the transactions UDUM0 worries about); when the set drains, the
    #: marks are safe to clear
    blockers: dict[str, set[str]] = field(default_factory=dict)
    #: audit of quiescence-based unmarkings: (txn, last blocker)
    quiescence_log: list[tuple[str, str]] = field(default_factory=list)
    #: transactions whose marks were cleared (by UDUM or quiescence) —
    #: stale copies of these marks in a transaction's ``transmarks`` are
    #: ignored by the protocols' checks
    cleared: set[str] = field(default_factory=set)
    #: ablation switch: disable the quiescence-based clearing rule, leaving
    #: UDUM1 as the only way marks dissolve (the paper's literal setup)
    quiescence_enabled: bool = True
    #: observability bus (attached by the System; None when standalone)
    bus: EventBus | None = None

    def machine(self, site_id: str) -> MarkingStateMachine:
        """The marking state machine of ``site_id``."""
        if site_id not in self.machines:
            self.machines[site_id] = MarkingStateMachine(site_id)
        return self.machines[site_id]

    def sitemarks(self, site_id: str) -> set[str]:
        """``sitemarks.k``: transactions ``site_id`` is undone wrt."""
        return self.machine(site_id).undone_set()

    def lc_marks(self, site_id: str) -> set[str]:
        """Transactions ``site_id`` is locally-committed wrt (for P2)."""
        return self.machine(site_id).locally_committed_set()

    def keep_audit(self, txn_ids: set[str]) -> None:
        """Each machine keeps the transitions of ``txn_ids`` only (the
        transactions a :class:`~repro.sg.judge.HistoryJudge` retains)."""
        for machine in self.machines.values():
            machine.keep(txn_ids)

    # -- registration ----------------------------------------------------------

    def register_execution(self, txn_id: str, site_ids: list[str]) -> None:
        """Record where a global transaction executes (augmented structure).

        Also marks the transaction in flight for the quiescence rule.
        """
        self.exec_sites.setdefault(txn_id, set()).update(site_ids)
        self.active.add(txn_id)

    def forget(self, txn_id: str) -> None:
        """Drop a finished transaction's execution sets once no rule can
        read them: it is not in flight and was never marked, or its marks
        were cleared (a live mark's sets feed its clearing and the
        protocols' checks; :meth:`_clear` drops them then)."""
        if txn_id in self.active:
            return
        if txn_id in self.cleared or txn_id not in self.marked_sites:
            self._drop(txn_id)

    def _drop(self, txn_id: str) -> None:
        self.exec_sites.pop(txn_id, None)
        self.executed_sites.pop(txn_id, None)
        self.marked_sites.pop(txn_id, None)
        self.executed_any.discard(txn_id)

    # -- quiescence-based clearing (the UDUM0-derived rule) -----------------------

    def note_marked(self, txn_id: str, site_id: str) -> None:
        """A site just became undone with respect to ``txn_id``.

        Snapshot the in-flight transactions that have already executed
        somewhere: only they can have accessed a site while it was locally
        committed with respect to ``txn_id`` (UDUM0's concern), so once
        they all terminate the marks are safe to clear.  A transaction
        still waiting to place its first subtransaction has observed
        nothing and need not block the clearing.  Called on every per-site
        marking event, so the blocker set accumulates across ``txn_id``'s
        sites (a site can be locally committed with respect to ``txn_id``
        while another is already undone — late observers are caught by the
        later site's marking event).
        """
        if txn_id in self.cleared:
            # A straggler marking after the transaction's marks were
            # cleared (e.g. a lock-blocked compensation finishing long
            # after the coordinator gave up waiting for its ACK).  The
            # clearing was sound — a roll-back that late exposed nothing —
            # so remove the stale mark immediately rather than resurrect
            # bookkeeping for a finished transaction.
            machine = self.machine(site_id)
            if txn_id in machine.undone_set():
                machine.fire(txn_id, MarkingEvent.UDUM)
            return
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.publish(MarkApplied(txn_id=txn_id, site_id=site_id))
        self.marked_sites.setdefault(txn_id, set()).add(site_id)
        self.blockers.setdefault(txn_id, set()).update(
            (self.active & self.executed_any) - {txn_id}
        )
        # A long-delayed compensation may be the last thing holding the
        # clearing back (the blockers may have drained long ago).
        if self._clearable(txn_id):
            self._clear(txn_id, enabler=txn_id)

    def _clearable(self, marked: str) -> bool:
        if not self.quiescence_enabled:
            return False
        if marked in self.active:
            return False
        if self.blockers.get(marked):
            return False
        if marked not in self.blockers:
            return False
        pending = (
            self.executed_sites.get(marked, set())
            - self.marked_sites.get(marked, set())
        )
        return not pending

    def _clear(self, marked: str, enabler: str) -> None:
        self.blockers.pop(marked, None)
        # No site will be undone wrt ``marked`` again (a straggler mark is
        # dropped on arrival), so its UDUM1 witnesses are dead weight, and
        # so are its execution sets: it is terminated, every site it
        # executed at is marked, and no transaction in flight carries it.
        self.witnesses.pop(marked, None)
        self._drop(marked)
        still_marked = False
        for machine in self.machines.values():
            if marked in machine.undone_set():
                machine.fire(marked, MarkingEvent.UDUM)
                still_marked = True
        if still_marked:
            self.quiescence_log.append((marked, enabler))
            bus = self.bus
            if bus is not None and bus.enabled:
                bus.publish(MarkCleared(
                    txn_id=marked, rule="quiescence", enabler=enabler,
                ))
        self.cleared.add(marked)

    def note_terminated(self, txn_id: str) -> list[str]:
        """A global transaction terminated (committed, or aborted with all
        roll-backs/compensations done).  Returns the marked transactions
        whose marks this termination allowed to clear.

        Transactions that *started after* a mark was placed can never have
        seen a locally-committed state of the marked transaction, and a
        local transaction cannot relay an inconsistency across sites, so
        draining the blocker set satisfies UDUM0 directly.  (This is the
        kind of alternative clearing rule the paper defers to [KLS90b];
        it uses the same augmented structures and no extra messages.)
        """
        self.active.discard(txn_id)
        for blocker_set in self.blockers.values():
            blocker_set.discard(txn_id)
        cleared = [
            marked for marked in sorted(self.blockers)
            if self._clearable(marked)
        ]
        for marked in cleared:
            # Every site where the marked transaction actually executed
            # must have fired its undone marking (checked by _clearable: a
            # compensation can still be lock-blocked long after the
            # coordinator gave up waiting for its ACK — clearing before it
            # runs would let a concurrent transaction see both worlds).
            self._clear(marked, enabler=txn_id)
        return cleared

    # -- witness recording and UDUM detection ------------------------------------

    def record_witness(self, observer_txn: str, site_id: str) -> list[str]:
        """Record that ``observer_txn`` executed at ``site_id``.

        Also feeds the quiescence rule's "has executed somewhere" set.

        For every transaction the site is currently undone with respect to,
        the observer becomes a witness (it executed "while that site was
        undone").  Returns the transactions for which UDUM1 became detectable
        — rule R3 then unmarks them, attributed to this observer.
        """
        self.executed_any.add(observer_txn)
        self.executed_sites.setdefault(observer_txn, set()).add(site_id)
        enabled: list[str] = []
        for marked_txn in sorted(self.sitemarks(site_id)):
            per_site = self.witnesses.setdefault(marked_txn, {})
            per_site.setdefault(site_id, set()).add(observer_txn)
            if self._udum1_holds(marked_txn):
                enabled.append(marked_txn)
        return enabled

    def _udum1_holds(self, txn_id: str) -> bool:
        sites = self.exec_sites.get(txn_id)
        if not sites:
            return False
        per_site = self.witnesses.get(txn_id, {})
        return all(per_site.get(site) for site in sites)

    def apply_udum(self, txn_id: str, enabling_witness: str) -> None:
        """Rule R3: unmark ``txn_id`` at every site still undone wrt it.

        Executed "as part of the transaction that enabled the transition".
        """
        for machine in self.machines.values():
            if txn_id in machine.undone_set():
                machine.fire(txn_id, MarkingEvent.UDUM)
        self.udum_log.append((txn_id, enabling_witness))
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.publish(MarkCleared(
                txn_id=txn_id, rule="UDUM1", enabler=enabling_witness,
            ))
        self.witnesses.pop(txn_id, None)
        self.cleared.add(txn_id)
