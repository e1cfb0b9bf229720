"""The coordinator host: a transaction's coordinator lives in its first site.

``System`` (sim) and ``SiteDaemon`` (net) build one :class:`CoordinatorHost`
per site.  It logs under the coordinator's ``coord.<txn>`` endpoint in the
site's WAL (participant recovery never reads those records): an unforced
``COORD_BEGIN`` (the site list), the forced ``DECIDE`` and an unforced
``COORD_END`` once every site acknowledged; a decision some site never
acknowledged stays owed in :attr:`pending`.  The host dies with its site
(:meth:`crash`); :meth:`recover` rebuilds the role from the WAL — a
``DECIDE`` without ``COORD_END`` is re-sent, a ``COORD_BEGIN`` without
``DECIDE`` is decided by :meth:`Coordinator.recover_decision` (presumed
abort; Paxos Commit asks its acceptors).  :meth:`orphaned` aborts what a
lost coordinator elsewhere left unvoted here (the paper's §1 autonomy).
Whoever waits for an outcome (a client connection; in the sim, a
submitter whose coordinator died) is an opaque *caller*.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Generator

from repro.commit.base import CommitConfig
from repro.commit.coordinator import Coordinator
from repro.commit.participant import Participant
from repro.errors import ProcessInterrupted
from repro.ids import COORDINATOR_PREFIX, coordinator_id, is_coordinator_id
from repro.obs.events import TxnTerminated
from repro.sim.events import Event
from repro.sim.process import Process
from repro.storage.wal import Cover, RecordType
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome

#: ``reply(caller, txn_id, cover, outcome)``: answer one caller
Reply = Callable[[Any, str, "Cover | None", "TxnOutcome | str"], None]


def _succeed(caller: Event, txn_id: str, cover: Any, outcome: Any) -> None:
    caller.succeed(outcome)  # the sim: an event its submitter waits on


class CoordinatorHost:
    """The coordinators of one site."""

    def __init__(
        self,
        participant: Participant,
        commit: CommitConfig | None = None,
        reply: Reply = _succeed,
        outcomes: list[TxnOutcome] | None = None,
        failed: list[str] | None = None,
        on_end: Callable[[], None] | None = None,
    ) -> None:
        from repro.protocols import engine_for

        #: the site's participant, whose site, network, scheme, marking
        #: protocol and acceptors the coordinators share
        self.participant = participant
        self.site = participant.site
        self.env = participant.env
        self.network = participant.network
        self.engine = engine_for(participant.scheme)
        #: the configuration of rebuilt and re-sent rounds
        self.commit = commit or participant.commit
        self.reply = reply
        #: where submissions' outcomes go (the sim's ``System.outcomes``)
        self.outcomes = outcomes
        #: where a failing coordinator is reported instead of failing the
        #: run (a daemon keeps serving)
        self.failed = failed
        #: called after each coordination ends (a daemon answers ``drain``)
        self.on_end = on_end
        #: live coordinations: submitted coordinators and re-sent rounds
        self.coordinating: dict[str, Process] = {}
        #: who waits for each live transaction's outcome
        self.callers: dict[str, list[Any]] = {}
        #: decisions some site never acknowledged: txn -> (decision, sites)
        self.pending: dict[str, tuple[str, list[str]]] = {}
        #: re-sends that owe a caller one more round
        self.again: set[str] = set()
        #: from a crash until :meth:`recover` rebuilt the role: a
        #: submission then starts no coordinator
        self.down = False
        self.site.on_checkpoint.append(self.forget)

    def _start(
        self, spec: GlobalTxnSpec, config: CommitConfig,
        work: Callable[[Coordinator], Generator[Event, Any, Any]],
        submitted: bool = False,
    ) -> Process:
        p = self.participant
        coordinator = self.engine.coordinator(
            env=self.env, network=self.network, spec=spec, scheme=p.scheme,
            marking=p.marking, config=config, host=self, acceptors=p.acceptors,
        )
        if submitted:
            self.site.wal.append(
                RecordType.COORD_BEGIN, coordinator.endpoint,
                sites=spec.site_ids,
            )
        proc = self.env.process(
            self._run(coordinator, work(coordinator), submitted),
            name="coordinator",
        )
        self.coordinating[spec.txn_id] = proc
        return proc

    def submit(
        self, spec: GlobalTxnSpec, config: CommitConfig, caller: Any = None,
    ) -> Event:
        """Start the coordinator of ``spec`` (this site is its first);
        the returned process's value is the :class:`TxnOutcome`.

        A down site starts, logs and sends nothing: the submission ends
        at once, aborted (a dead daemon refuses the connection)."""
        if self.down:
            return self._refuse(spec, caller)
        if caller is not None:
            self.callers[spec.txn_id] = [caller]
        return self._start(spec, config, lambda c: c.run(), submitted=True)

    def _refuse(self, spec: GlobalTxnSpec, caller: Any) -> Event:
        now = self.env.now
        outcome = TxnOutcome(
            spec.txn_id, committed=False, start_time=now,
            decision_time=now, end_time=now,
        )
        if self.outcomes is not None:
            self.outcomes.append(outcome)
        if self.env.bus.enabled:
            self.env.bus.publish(TxnTerminated(
                txn_id=spec.txn_id, committed=False, latency=0.0,
                compensated_sites=(),
            ))
        if caller is not None:
            self.reply(caller, spec.txn_id, None, outcome)
        refused = Event(self.env)
        refused.succeed(outcome)
        return refused

    def _run(
        self, coordinator: Coordinator, work: Generator[Event, Any, Any],
        submitted: bool,
    ) -> Generator[Event, Any, Any]:
        try:
            value = yield from work
        except ProcessInterrupted:
            # The site crashed; a submitter waits for the rebuilt round.
            if not submitted:
                return None
            answer = Event(self.env)
            self.callers.setdefault(coordinator.spec.txn_id, []).append(answer)
            outcome = replace(
                (yield answer), start_time=coordinator.outcome.start_time,
            )
            if self.outcomes is not None:
                self.outcomes.append(outcome)
            if self.env.bus.enabled:
                self.env.bus.publish(TxnTerminated(
                    txn_id=outcome.txn_id, committed=outcome.committed,
                    latency=outcome.latency,
                    compensated_sites=tuple(outcome.compensated_sites),
                ))
            return outcome
        except Exception as exc:
            if self.failed is None:
                raise
            error = f"{coordinator.spec.txn_id}: coordinator failed: {exc!r}"
            self.failed.append(error)
            self.tell(coordinator.spec.txn_id, None, error)
            value = None
        self._ended(coordinator, value)
        return value

    def decide(
        self, coordinator: Coordinator, decision: str, sites: list[str],
    ) -> Cover:
        """Force ``coordinator``'s DECIDE; returns the stamp of its
        DECISIONs.  A COMMIT is told at once, behind the same record."""
        wal = self.site.wal
        wal.append(
            RecordType.DECIDE, coordinator.endpoint, force=True,
            decision=decision, sites=sites,
        )
        cover = wal.cover(coordinator.endpoint)
        if decision == "COMMIT" and coordinator.spec.txn_id in self.callers:
            now = self.env.now
            self.tell(coordinator.spec.txn_id, cover, replace(
                coordinator.outcome, committed=True,
                decision_time=now, end_time=now,
            ))
        return cover

    def tell(
        self, txn_id: str, cover: Cover | None, outcome: TxnOutcome | str,
    ) -> None:
        """Answer everyone waiting for ``txn_id`` (a string: an error)."""
        for caller in self.callers.pop(txn_id, ()):
            self.reply(caller, txn_id, cover, outcome)

    def ask(self, txn_id: str, caller: Any) -> None:
        """What became of ``txn_id``: told when a live coordination ends;
        else only a ``DECIDE(COMMIT)`` in the log (the stamp) is a commit —
        after a checkpoint dropped it, the settled-id table's stand-in."""
        if txn_id in self.coordinating:
            self.callers.setdefault(txn_id, []).append(caller)
            return
        endpoint = coordinator_id(txn_id)
        decide = self.site.wal.settled_record(endpoint)
        for record in self.site.wal.records_for(endpoint):
            if record.record_type is RecordType.DECIDE:
                decide = record
        committed = decide is not None and decide.payload["decision"] == "COMMIT"
        self.reply(
            caller, txn_id, (self.site.wal, decide),
            TxnOutcome(txn_id=txn_id, committed=committed),
        )

    def _ended(self, coordinator: Coordinator, value: Any) -> None:
        """A coordination ended: tell its callers, book its decision."""
        txn_id = coordinator.spec.txn_id
        endpoint = coordinator.endpoint
        if self.coordinating.get(txn_id) is self.env.active_process:
            # A resubmitted id shares this endpoint: the latest retires it.
            del self.coordinating[txn_id]
            self.network.unregister(endpoint)
        if isinstance(value, TxnOutcome) and self.outcomes is not None:
            self.outcomes.append(value)
        if txn_id in self.callers:
            self.tell(txn_id, self.site.wal.cover(endpoint), coordinator.outcome)
        unacked = [
            s for s in coordinator.decision_sites
            if s not in coordinator.decision_acks
        ]
        if not unacked:
            self.pending.pop(txn_id, None)
            self.again.discard(txn_id)
            self.site.wal.append(RecordType.COORD_END, endpoint)
        elif txn_id in self.again:
            self.again.discard(txn_id)
            self.resend(txn_id, coordinator.decision, unacked)
        else:
            self.pending[txn_id] = (coordinator.decision, unacked)
        if self.on_end is not None:
            self.on_end()

    def resend(self, txn_id: str, decision: str | None, sites: list[str]) -> None:
        """One decision round to the sites that may not have it; a
        ``decision`` of None is first decided and logged."""
        if decision is not None:
            self.pending[txn_id] = (decision, sites)

        def work(coordinator: Coordinator) -> Generator[Event, Any, Any]:
            nonlocal decision
            if decision is None:
                decision = yield from coordinator.recover_decision(sites)
                coordinator.decision_cover = self.decide(
                    coordinator, decision, sites,
                )
            else:  # the DECIDE this site's WAL already holds
                coordinator.decision_cover = self.site.wal.cover(
                    coordinator.endpoint,
                )
            outcome = coordinator.outcome
            outcome.committed = decision == "COMMIT"
            outcome.decision_time = self.env.now
            acks = yield from coordinator._decision_phase(decision, sites)
            outcome.compensated_sites = sorted(
                s for s, ack in acks.items() if ack.get("compensated")
            ) or ()
            outcome.end_time = self.env.now
            coordinator.marking.on_transaction_terminated(txn_id)
            return acks

        self._start(GlobalTxnSpec(txn_id), self.commit, work)

    def crash(self) -> list[str]:
        """The site crashed: its coordinators die and all but the callers
        (outside it) is forgotten; returns the dead ones' transactions."""
        lost = sorted(self.coordinating)
        for txn_id in lost:
            self.network.unregister(coordinator_id(txn_id))
            proc = self.coordinating[txn_id]
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt(cause=f"site {self.site.site_id} crashed")
        self.coordinating.clear()
        self.pending.clear()
        self.again.clear()
        self.down = True
        return lost

    def recover(self) -> None:
        """Rebuild the role from the WAL, after the participant recovered
        (a re-sent decision must find its in-doubt state rebuilt)."""
        owed: dict[str, tuple[str | None, list[str]]] = {}
        for record in self.site.wal:
            kind = record.record_type
            if kind is RecordType.COORD_END:
                owed.pop(record.txn_id.removeprefix(COORDINATOR_PREFIX), None)
            elif kind in (RecordType.COORD_BEGIN, RecordType.DECIDE):
                owed[record.txn_id.removeprefix(COORDINATOR_PREFIX)] = (
                    record.payload.get("decision"), record.payload["sites"],
                )
        for txn_id, (decision, sites) in sorted(owed.items()):
            self.resend(txn_id, decision, sites)
        self.down = False

    def forget(self, endpoints: list[str]) -> None:
        """A checkpoint settled ``endpoints``: the marking directory may
        drop the execution sets of the coordinations among them (each
        ended, every site acknowledged)."""
        directory = self.participant.marking.directory
        for endpoint in endpoints:
            if is_coordinator_id(endpoint):
                directory.forget(endpoint.removeprefix(COORDINATOR_PREFIX))

    def orphaned(self, txn_ids: list[str]) -> None:
        """Coordinators elsewhere were lost: abort what they left unvoted
        here once it has executed (if still waiting for a lock, it would
        finish later and keep it)."""
        for txn_id in txn_ids:
            state = self.participant.subtxns.get(txn_id)
            if state is not None:
                self.env.process(self._orphaned(txn_id, state))

    def _orphaned(self, txn_id: str, state: Any) -> Generator[Event, Any, None]:
        while not state.executed and self.site.ltm.is_active(txn_id):
            yield self.env.timeout(1.0)
        self.participant.unilateral_abort(txn_id)
