"""Paxos Commit (Gray & Lamport) on the shared substrate.

One Paxos consensus instance per participant vote: instead of sending its
YES/NO to the coordinator, a participant sends it as a ballot-0 phase-2a
message to all 2F+1 acceptors; the coordinator (acting as the initial
leader) learns each instance's outcome from the acceptors' phase-2b
replies.  The global decision is COMMIT iff every instance chose YES.

The non-blocking property the experiment harness measures: when the
coordinator crashes after participants prepared, a standard-2PC participant
holds its locks until the coordinator recovers, but a Paxos Commit
participant only waits ``paxos_decision_timeout`` and then runs the
termination protocol itself — phase 1 (prepare/promise) against the
acceptors at a fresh ballot, then phase 2 proposing the highest-ballot
accepted value per instance (NO for free instances) — deciding as long as
F+1 acceptors are up.  Quorum intersection makes every leader, concurrent
or successive, decide the same way.

Engine shape on the substrate:

* :class:`PaxosCommitCoordinator` — subclasses the base coordinator; spawn
  and decision phases are inherited unchanged, only the vote phase is
  replaced by acceptor collection + coordinator-side termination.
* :class:`PaxosParticipant` — subclasses the base participant; votes are
  ballot-0 accepts, a watchdog process per prepared transaction runs the
  termination protocol when the decision does not arrive in time, and
  crash recovery re-arms the watchdog for in-doubt transactions (the
  acceptor log then reconstructs the instance set).
* :class:`~repro.protocols.acceptor.Acceptor` — the 2F+1 acceptors.
"""

from __future__ import annotations

from typing import Any

from repro.commit.coordinator import Coordinator
from repro.commit.participant import Participant
from repro.ids import is_coordinator_id
from repro.net.message import QUORUM, Message, MsgType
from repro.obs.events import Prepared
from repro.protocols.acceptor import Ballot, ballot_of
from repro.sim.process import Process
from repro.txn.transaction import VotePolicy

#: polling granularity of the termination mailbox (simulation units; the
#: site inbox is owned by the dispatch loop, so termination replies are
#: queued by handlers and polled by the leader process)
_MAILBOX_POLL = 0.5


# -- termination protocol (shared by coordinator and recovery leaders) ----------


def run_termination(
    *,
    env: Any,
    network: Any,
    me: str,
    txn_id: str,
    acceptors: tuple[str, ...],
    ballot: Ballot,
    collect: Any,
    known_sites: Any,
    phase_timeout: float,
) -> Any:
    """One ballot of the Paxos Commit termination protocol (generator).

    Phase 1a/1b: prepare at ``ballot``, gather F+1 matching promises.
    Phase 2a/2b: per instance, propose the highest-ballot accepted value
    from the promises (NO for instances no quorum member accepted — the
    participant never voted, so abort is the only safe choice), gather an
    accept quorum per instance.

    Returns ``{instance: value}`` on success, or ``None`` when either
    quorum was not reached within ``phase_timeout`` (the caller retries at
    a higher ballot).  ``collect`` is a generator function
    ``(msg_type, timeout) -> Message | None`` draining the leader's reply
    stream.
    """
    quorum = len(acceptors) // 2 + 1
    for acc in acceptors:
        network.send(Message(
            msg_type=MsgType.PAXOS_PREPARE,
            sender=me,
            recipient=acc,
            txn_id=txn_id,
            payload={"ballot": list(ballot), "leader": me},
        ))
    promises: dict[str, dict[str, Any]] = {}
    deadline = env.now + phase_timeout
    while len(promises) < quorum:
        remaining = deadline - env.now
        if remaining <= 0:
            return None
        msg = yield from collect(MsgType.PAXOS_PROMISE, remaining)
        if msg is None:
            return None
        if msg.txn_id != txn_id:
            continue
        if ballot_of(msg.payload["ballot"]) != ballot:
            continue  # nack: the acceptor promised a higher ballot
        promises[msg.sender] = msg.payload

    instances: set[str] = {str(s) for s in known_sites}
    for payload in promises.values():
        instances.update(str(s) for s in payload.get("sites", ()))
        instances.update(str(i) for i in payload.get("accepted", {}))
    choices: dict[str, str] = {}
    for instance in sorted(instances):
        best: tuple[Ballot, str] | None = None
        for payload in promises.values():
            entry = payload.get("accepted", {}).get(instance)
            if entry is None:
                continue
            candidate = (ballot_of(entry[0]), str(entry[1]))
            if best is None or candidate[0] > best[0]:
                best = candidate
        choices[instance] = best[1] if best is not None else "NO"

    site_list = sorted(instances)
    for acc in acceptors:
        for instance in site_list:
            network.send(Message(
                msg_type=MsgType.PAXOS_ACCEPT,
                sender=me,
                recipient=acc,
                txn_id=txn_id,
                payload={
                    "instance": instance,
                    "ballot": list(ballot),
                    "value": choices[instance],
                    "leader": me,
                    "sites": site_list,
                },
            ))
    counts: dict[str, set[str]] = {instance: set() for instance in site_list}
    deadline = env.now + phase_timeout
    while any(len(accs) < quorum for accs in counts.values()):
        remaining = deadline - env.now
        if remaining <= 0:
            return None
        msg = yield from collect(MsgType.PAXOS_ACCEPTED, remaining)
        if msg is None:
            return None
        if msg.txn_id != txn_id:
            continue
        if ballot_of(msg.payload["ballot"]) != ballot:
            continue
        instance = str(msg.payload["instance"])
        if instance in counts:
            counts[instance].add(msg.sender)
    return choices


class _TermMailbox:
    """Reply queue for a termination leader running inside a participant.

    The site's network inbox is consumed exclusively by the participant's
    dispatch loop, so PAXOS_PROMISE/PAXOS_ACCEPTED handlers push into this
    queue and the leader process polls it (bounded, deterministic)."""

    __slots__ = ("env", "queue")

    def __init__(self, env: Any) -> None:
        self.env = env
        self.queue: list[Message] = []

    def push(self, msg: Message) -> None:
        self.queue.append(msg)

    def collect(self, msg_type: MsgType, timeout: float) -> Any:
        deadline = self.env.now + timeout
        while True:
            for i, queued in enumerate(self.queue):
                if queued.msg_type is msg_type:
                    return self.queue.pop(i)
            remaining = deadline - self.env.now
            if remaining <= 0:
                return None
            yield self.env.timeout(min(_MAILBOX_POLL, remaining))


# -- coordinator ----------------------------------------------------------------


class PaxosCommitCoordinator(Coordinator):
    """Coordinator/initial leader of Paxos Commit.

    Spawn and decision phases are the base coordinator's; the vote phase
    collects instance outcomes from the acceptors instead of VOTE messages,
    falling back to the termination protocol when the vote window expires.
    A restarted site's coordinator without a logged decision runs the same
    termination (:meth:`recover_decision`): presumed abort is *wrong* here
    — the acceptors may have chosen COMMIT — so it asks them instead of
    assuming.
    """

    #: receive surface (see ``Coordinator._COLLECTS``; checked by
    #: ``tests/protocols/test_message_flow.py``): votes arrive as acceptor
    #: PAXOS_ACCEPTED messages; PAXOS_PROMISE feeds termination.
    _COLLECTS: tuple[MsgType, ...] = (
        MsgType.SUBTXN_ACK,
        MsgType.PAXOS_PROMISE,
        MsgType.PAXOS_ACCEPTED,
        MsgType.ACK,
    )

    def _vote_phase(self) -> Any:
        """Returns ``{site: "YES"|"NO"}`` learned through the acceptors."""
        transmarks = sorted(self._final_transmarks())
        sites = [sub.site_id for sub in self.spec.subtxns]
        for sub in self.spec.subtxns:
            self.network.send(Message(
                msg_type=MsgType.VOTE_REQ,
                sender=self.endpoint,
                recipient=sub.site_id,
                txn_id=self.spec.txn_id,
                payload={
                    "transmarks": transmarks,
                    "acceptors": list(self.acceptors),
                    "sites": sites,
                },
            ))
        quorum = len(self.acceptors) // 2 + 1
        tallies: dict[tuple[str, Ballot, str], set[str]] = {}
        decided: dict[str, str] = {}
        deadline = self.env.now + self.config.vote_timeout
        while len(decided) < len(sites):
            remaining = deadline - self.env.now
            if remaining <= 0:
                break
            msg = yield from self._collect(MsgType.PAXOS_ACCEPTED, remaining)
            if msg is None:
                break
            instance = str(msg.payload["instance"])
            key = (
                instance,
                ballot_of(msg.payload["ballot"]),
                str(msg.payload["value"]),
            )
            voters = tallies.setdefault(key, set())
            voters.add(msg.sender)
            if len(voters) >= quorum and instance not in decided:
                decided[instance] = key[2]
        if len(decided) < len(sites):
            decided = yield from self._terminate(sites, decided)
        return decided

    def _terminate(self, sites: list[str], decided: dict[str, str]) -> Any:
        """Leader-side termination: retry at rising ballots until every
        instance has an accept quorum.

        Non-terminating only while more than F acceptors stay down — the
        protocol's documented blocking bound (with finite outages each
        retry eventually finds its quorum).  Safety over speed: the
        coordinator never presumes abort here, because an instance may
        already have chosen YES at a quorum this leader simply has not
        heard from yet.
        """
        rnd = 1
        while True:
            result = yield from run_termination(
                env=self.env,
                network=self.network,
                me=self.endpoint,
                txn_id=self.spec.txn_id,
                acceptors=self.acceptors,
                ballot=(rnd, self.endpoint),
                collect=self._collect,
                known_sites=sites,
                phase_timeout=self.config.paxos_decision_timeout,
            )
            if result is not None:
                # Quorum intersection: ``result`` can never contradict an
                # instance already decided at ballot 0.
                return {**decided, **result}
            rnd += 1
            yield self.env.timeout(self.config.spawn_retry_delay)

    def recover_decision(self, sites: list[str]) -> Any:
        """Ask the acceptors: a participant's termination may have
        committed already."""
        decided = yield from self._terminate(sites, {})
        if len(decided) == len(sites) and all(
            v == "YES" for v in decided.values()
        ):
            return "COMMIT"
        return "ABORT"


# -- participant ----------------------------------------------------------------


class PaxosParticipant(Participant):
    """Participant of Paxos Commit.

    Votes are ballot-0 accepts sent to every acceptor (the coordinator
    learns them from the acceptors' 2b replies).  A YES voter prepares —
    force-log, keep write locks — and arms a watchdog: if no DECISION
    arrives within ``paxos_decision_timeout``, the participant becomes a
    recovery leader and runs the termination protocol, then applies and
    broadcasts the outcome.  This is the non-blocking path 2PC lacks.
    """

    #: receive surface (see ``Participant._HANDLERS``; checked by
    #: ``tests/protocols/test_message_flow.py``); the two Paxos reply types
    #: feed the termination mailbox of a recovery leader.
    _HANDLERS: dict[MsgType, str] = {
        MsgType.SUBTXN_REQ: "_handle_subtxn",
        MsgType.VOTE_REQ: "_handle_vote_req",
        MsgType.DECISION: "_handle_decision",
        MsgType.PAXOS_PROMISE: "_handle_promise",
        MsgType.PAXOS_ACCEPTED: "_handle_accepted",
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._mailboxes: dict[str, _TermMailbox] = {}
        #: txn → participant list from the VOTE_REQ payload (volatile;
        #: recovery leaders fall back to the acceptors' stored site lists)
        self._txn_sites: dict[str, list[str]] = {}

    # -- VOTE_REQ -----------------------------------------------------------------

    def _handle_vote_req(self, msg: Message) -> Any:
        txn_id = msg.txn_id
        state = self.subtxns.get(txn_id)
        transmarks: set[str] = set(msg.payload.get("transmarks", ()))
        acceptors = (
            tuple(str(a) for a in msg.payload.get("acceptors", ()))
            or self.acceptors
        )
        sites = [str(s) for s in msg.payload.get("sites", ())]
        self._txn_sites[txn_id] = sites or [self.site.site_id]

        can_commit = (
            state is not None
            and state.executed
            and self.site.ltm.is_active(txn_id)
            and state.vote_policy is not VotePolicy.FORCE_NO
            and self.marking.validate_at_vote(
                txn_id, self.site.site_id, transmarks
            )
        )
        if not can_commit:
            if state is not None and self.site.ltm.is_active(txn_id):
                self.site.ltm.rollback_subtxn(txn_id)
                self._mark(self.marking.on_vote_abort, txn_id)
            if state is not None:
                state.voted = "NO"
            self._send_ballot_zero(txn_id, "NO", acceptors, msg.sender)
            return

        assert state is not None
        # Prepare exactly like 2PC: force-log, keep write locks.  The
        # non-blocking win is in how the decision is *reached*, not in
        # early lock release (that is O2PC's and Short-Commit's trade).
        self.site.ltm.prepare(txn_id)
        bus = self.env.bus
        if bus.enabled:
            bus.publish(Prepared(txn_id=txn_id, site_id=self.site.site_id))
        state.voted = "YES"
        self._send_ballot_zero(txn_id, "YES", acceptors, msg.sender)
        self._arm_watchdog(
            txn_id, acceptors, self.commit.paxos_decision_timeout
        )
        return
        yield  # pragma: no cover - make this handler a generator

    def _send_ballot_zero(
        self,
        txn_id: str,
        vote: str,
        acceptors: tuple[str, ...],
        leader: str,
    ) -> None:
        """The participant's vote: a phase-2a message at the reserved
        ballot 0, carrying the site list so acceptors can reconstruct the
        instance set for any future recovery leader."""
        sites = self._txn_sites.get(txn_id) or [self.site.site_id]
        cover = self.site.wal.cover(txn_id)
        for acc in acceptors:
            self.network.send(Message(
                msg_type=MsgType.PAXOS_ACCEPT,
                sender=self.site.site_id,
                recipient=acc,
                txn_id=txn_id,
                payload={
                    "instance": self.site.site_id,
                    "ballot": [0, ""],
                    "value": vote,
                    "leader": leader,
                    "sites": sites,
                },
                covers=cover,
            ))

    # -- termination watchdog -----------------------------------------------------

    def _arm_watchdog(
        self, txn_id: str, acceptors: tuple[str, ...], delay: float
    ) -> None:
        proc = Process.eager(
            self.env,
            self._watchdog(txn_id, acceptors, delay),
            name=f"{self.site.site_id}:paxos-term:{txn_id}",
        )
        # Tracked like message handlers: a crash must kill a pending
        # watchdog (recovery re-arms it from the log).
        if proc is not None and proc.is_alive:
            self._handlers.add(proc)
            proc.callbacks.append(
                lambda _evt, p=proc: self._handlers.discard(p)
            )

    def _watchdog(
        self, txn_id: str, acceptors: tuple[str, ...], delay: float,
    ) -> Any:
        sites = self._txn_sites.get(txn_id) or [self.site.site_id]
        # Stagger leaders by rank so concurrent recovery attempts (dueling
        # ballots) stay rare; any interleaving is still safe.  The first
        # site hosts the coordinator, and the crash that silences it takes
        # that site down too: it ranks last.
        rank = (
            (sites.index(self.site.site_id) - 1) % len(sites)
            if self.site.site_id in sites else 0
        )
        yield self.env.timeout(delay + 3.0 * rank)
        rnd = 1
        while True:
            state = self.subtxns.get(txn_id)
            if state is None or state.decided is not None:
                return
            mailbox = self._mailboxes.setdefault(
                txn_id, _TermMailbox(self.env)
            )
            result = yield from run_termination(
                env=self.env,
                network=self.network,
                me=self.site.site_id,
                txn_id=txn_id,
                acceptors=acceptors,
                ballot=(rnd, self.site.site_id),
                collect=mailbox.collect,
                known_sites=self._txn_sites.get(txn_id)
                or [self.site.site_id],
                phase_timeout=self.commit.paxos_decision_timeout,
            )
            state = self.subtxns.get(txn_id)
            if state is None or state.decided is not None:
                return
            if result is not None:
                decision = (
                    "COMMIT"
                    if result
                    and all(v == "YES" for v in result.values())
                    else "ABORT"
                )
                targets = sorted(set(result) | {self.site.site_id})
                for site_id in targets:
                    self.network.send(Message(
                        msg_type=MsgType.DECISION,
                        sender=self.site.site_id,
                        recipient=site_id,
                        txn_id=txn_id,
                        payload={"decision": decision},
                        covers=QUORUM,
                    ))
                return
            rnd += 1
            yield self.env.timeout(1.0 + rank)

    # -- termination replies (fed to the mailbox) ---------------------------------

    def _handle_promise(self, msg: Message) -> Any:
        self._mailboxes.setdefault(msg.txn_id, _TermMailbox(self.env)).push(
            msg
        )
        return
        yield  # pragma: no cover - make this handler a generator

    def _handle_accepted(self, msg: Message) -> Any:
        self._mailboxes.setdefault(msg.txn_id, _TermMailbox(self.env)).push(
            msg
        )
        return
        yield  # pragma: no cover - make this handler a generator

    # -- crash / recovery ---------------------------------------------------------

    def crash(self) -> None:
        super().crash()
        self._mailboxes.clear()
        self._txn_sites.clear()

    def _forget(self, txn_id: str) -> None:
        super()._forget(txn_id)
        self._mailboxes.pop(txn_id, None)
        self._txn_sites.pop(txn_id, None)

    def _ack(self, msg: Message, compensated: bool) -> None:
        """ACK a coordinator's decision only: a recovery leader is a site,
        and no participant collects ACKs."""
        if is_coordinator_id(msg.sender):
            super()._ack(msg, compensated)
        elif self.site.wal.forgot(msg.txn_id):
            self._forget(msg.txn_id)

    def recover(self) -> Any:
        report = yield from super().recover()
        for txn_id in sorted(report.in_doubt):
            # A recovered prepared participant is exactly the blocked-2PC
            # case Paxos Commit exists to remove: ask the acceptors.  The
            # instance set comes back in their promises (stored from the
            # ballot-0 site lists); if they know nothing, aborting the own
            # instance is safe — no COMMIT quorum can exist that does not
            # intersect the promise quorum.
            self._arm_watchdog(txn_id, self.acceptors, 1.0)
        return report
