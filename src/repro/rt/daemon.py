"""SiteDaemon: one site's Participant and Coordinators as a network service.

``repro serve S1 --cluster cluster.json`` builds a :class:`SiteDaemon`:
the unmodified :class:`~repro.commit.participant.Participant` state
machine on its own discrete-event environment, pumped in real time, with
a :class:`~repro.rt.transport.TcpTransport` in place of the simulated
network and a file-backed write-ahead log in place of the in-memory one.

It also hosts the unmodified :class:`~repro.commit.coordinator.Coordinator`
of every transaction submitted to it (a client's ``submit`` frame; the
daemon must be the transaction's first site, so the coordinator's
exchanges with this site are in-process deliveries).  Its records go to
the site's group-committed WAL, keyed by its ``coord.<txn>`` endpoint so
participant recovery never reads them: an unforced ``COORD_BEGIN`` (the
site list) at submission, which the fsync of this site's own vote puts on
disk before any remote VOTE_REQ leaves; the forced ``DECIDE``; an unforced
``COORD_END`` once every site acknowledged.  One sequential log holds both
roles, which makes the in-process shortcut safe: the local ACK reaches the
coordinator before the local COMMIT is fsynced, but ``COORD_END`` follows
that COMMIT in the log and cannot be durable without it.  A COMMIT is told
to the caller right after its ``DECIDE`` append, through
:meth:`TcpTransport.tell`, so behind the barrier that fsyncs it; anything
else is told at termination.  An admin ``drain`` is answered once no
coordinator is live; a decision some site never acknowledged stays in
:attr:`SiteDaemon.pending` until a ``resend`` round gets its ACKs.

Boot is where the paper's recovery story becomes operational:

* **first boot** (no WAL file): preload the site's keys, then take a
  quiescent checkpoint so the initial contents are durable — ``load()``
  itself is pre-history and never logged;
* **restart** (WAL file exists): replay the log and run
  :meth:`Participant.recover` — exactly the classification the simulated
  restart oracle checks: *in-doubt* transactions (prepared under 2PL)
  re-acquire their write locks and block on the decision; *locally
  committed* ones (O2PC) have their updates redone and await the decision
  with compensation armed.  A ``kill -9`` between the YES vote and the
  decision therefore lands in the second bucket, and a later ABORT runs
  the compensating subtransaction.  Then the coordinator role is rebuilt:
  a ``DECIDE`` without ``COORD_END`` is re-sent; a ``COORD_BEGIN`` without
  ``DECIDE`` is presumed aborted (not under Paxos Commit, whose acceptors
  may have chosen COMMIT).  A caller that lost its connection asks the
  restarted daemon (admin ``outcome``).

When the connection of a coordinator elsewhere drops, a subtransaction it
left executed and unvoted here is unilaterally aborted
(:meth:`Participant.unilateral_abort`, the paper's §1 autonomy property)
instead of holding its locks until this site restarts.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Generator

from repro.commit.base import CommitConfig, CommitScheme
from repro.commit.coordinator import Coordinator
from repro.core.marks import MARKS_KEY, MarkingDirectory
from repro.core.protocols import MarkingProtocol, NoProtocol
from repro.harness.system import PROTOCOLS
from repro.protocols import acceptor_ids, engine_for
from repro.protocols.acceptor import Acceptor
from repro.rt.config import ClusterConfig
from repro.rt.group_commit import GroupCommitFlusher
from repro.rt.obs_sink import JsonlEventSink
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport, _Link
from repro.rt.wire import WireError, spec_from_json
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.storage.recovery import RecoveryManager, RestartReport
from repro.storage.wal import Cover, RecordType, WriteAheadLog
from repro.txn.site import Site
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome

#: the coordinator's records in the site WAL (keyed by its endpoint)
_COORD_RECORDS = (
    RecordType.COORD_BEGIN, RecordType.DECIDE, RecordType.COORD_END,
)


class SiteDaemon:
    """One site of the cluster as a standalone asyncio service."""

    def __init__(
        self,
        site_id: str,
        cluster: ClusterConfig,
        scheme: CommitScheme = CommitScheme.O2PC,
        protocol: str = "none",
        time_scale: float = 0.01,
        keys_per_site: int = 20,
        initial_value: int = 100,
        commit: CommitConfig | None = None,
        obs_path: str | None = None,
    ) -> None:
        self.site_id = site_id
        self.cluster = cluster
        self.env = Environment()
        self.pump = RealtimePump(self.env, time_scale=time_scale)
        self.transport = TcpTransport(
            self.env, cluster, self.pump, local_site=site_id,
        )
        self.transport.control_handler = self._handle_control
        self.transport.routes_lost = self._coordinators_lost

        wal_path = cluster.wal_path(site_id)
        os.makedirs(os.path.dirname(wal_path) or ".", exist_ok=True)
        #: True when this boot created the WAL file (first boot)
        self.fresh_boot = not os.path.exists(wal_path)
        self.keys_per_site = keys_per_site
        self.initial_value = initial_value

        self.site = Site(self.env, site_id)
        # Swap the in-memory WAL for the file-backed one before any record
        # is written; recovery must read the same log it appends to.
        self.site.wal = WriteAheadLog(site_id, path=wal_path)
        self.site.recovery = RecoveryManager(self.site.store, self.site.wal)

        self.marking: MarkingProtocol = PROTOCOLS[protocol](
            directory=MarkingDirectory()
        )
        if not isinstance(self.marking, NoProtocol):
            self.site.marks_key = MARKS_KEY

        self.commit = commit or CommitConfig()
        self.scheme = scheme
        self.engine = engine = engine_for(scheme)
        # Acceptor ensemble: one acceptor co-hosted per daemon, so the
        # cluster is its own 2F+1 ensemble (see ClusterConfig.route_site).
        self.acceptors: tuple[str, ...] = (
            acceptor_ids(len(cluster.site_ids))
            if engine.acceptor is not None else ()
        )
        self.participant = engine.participant(
            site=self.site, network=self.transport, scheme=scheme,
            marking=self.marking, commit=self.commit,
            acceptors=self.acceptors,
        )
        #: live coordinations by transaction: hosted coordinators and
        #: decision re-sends (both hold the ``coord.<txn>`` endpoint)
        self.coordinating: dict[str, Event] = {}
        #: who to tell each live coordinator's outcome: its submitter, and
        #: whoever asked after losing that connection
        self._callers: dict[str, list[_Link]] = {}
        #: decisions some site never acknowledged: txn -> (decision, sites)
        self.pending: dict[str, tuple[str, list[str]]] = {}
        #: admin ``drain`` / ``resend`` requests held until nothing is live
        self._settling: list[tuple[_Link, str]] = []
        #: re-sends that owe a ``resend`` request one more round
        self._again: set[str] = set()
        #: coordinators that failed since the last settled reply
        self._failures: list[str] = []
        #: the co-hosted Paxos acceptor (None outside PAXOS); it logs to
        #: the site's WAL, so it rebuilds its tables from the replayed file
        self.acceptor: Acceptor | None = None
        if engine.acceptor is not None:
            acc_id = cluster.acceptor_hosted_by(site_id)
            if acc_id is not None:
                self.acceptor = engine.acceptor(
                    self.env, self.transport, acc_id, self.site.wal,
                )
        #: recovery classification of the last restart (None on first boot)
        self.restart_report: RestartReport | None = None
        #: fsync coalescing for the WAL (armed after boot); the transport's
        #: durability gate routes every outbound frame through its barrier,
        #: so a force point is never revealed before its covering fsync
        self.flusher = GroupCommitFlusher(self.site.wal)
        #: per-site JSONL event stream (None = observability off)
        self.obs_sink: JsonlEventSink | None = None
        if obs_path is not None:
            self.obs_sink = JsonlEventSink(obs_path)
            self.env.bus.subscribe(self.obs_sink)
            self.env.bus.enable()
        self._pump_task: Any = None
        self._stop = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Listen, start the pump, and run boot-time recovery."""
        await self.transport.serve()
        self._pump_task = asyncio.get_running_loop().create_task(
            self.pump.run()
        )
        if self.fresh_boot:
            self.site.load({
                f"k{i}": self.initial_value
                for i in range(self.keys_per_site)
            })
            # load() is unlogged; the quiescent checkpoint makes the
            # initial contents durable so a restart restores them.  Boot
            # path: nothing is being served yet, blocking is harmless.
            self.site.checkpoint()  # lint: allow-blocking
        else:
            proc = self.env.process(
                self.participant.recover(),
                name=f"recover:{self.site_id}",
            )
            self.restart_report = await self.pump.wait_for(proc)
        # Arm group commit only after boot: the fresh-boot checkpoint and
        # recovery's own force points must be on disk before we serve.
        self.site.wal.group_commit = True
        self.transport.durability_gate = self.flusher.barrier
        if not self.fresh_boot:
            # After the participant's recovery: a re-sent decision must
            # find its locally committed / in-doubt state rebuilt.
            self._recover_coordinators()

    async def run(self) -> None:
        """Serve until :meth:`stop` (or an admin shutdown frame)."""
        await self.start()
        await self._stop.wait()
        await self.shutdown()

    def stop(self) -> None:
        """Ask :meth:`run` to exit."""
        self._stop.set()

    async def shutdown(self) -> None:
        """Stop the pump, close every connection, and close the WAL."""
        self.pump.stop()
        if self._pump_task is not None:
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        await self.transport.flush()  # what the last turn told
        await self.transport.close()
        # Shutdown path: the transport is closed, nothing left to starve.
        self.site.wal.close()  # lint: allow-blocking
        if self.obs_sink is not None:
            self.obs_sink.close()

    # -- admin surface -------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Snapshot of this daemon's state (admin ``status`` frames)."""
        report = self.restart_report
        return {
            "site": self.site_id,
            "now": self.env.now,
            "fresh_boot": self.fresh_boot,
            "wal_records": len(self.site.wal),
            "torn_records_truncated": self.site.wal.torn_records_truncated,
            "forced_writes": self.site.wal.forced_writes,
            "fsyncs": self.site.wal.fsyncs,
            "fsync_groups": self.flusher.groups,
            "frames_sent": self.transport.frames_sent,
            "messages_framed": self.transport.messages_framed,
            "frames_refused": self.transport.frames_refused,
            "reused_ids_refused": self.participant.reused_ids_refused,
            "coordinators": len(self.coordinating),
            "pending": self._owed(),
            "keys": len(self.site.store.snapshot()),
            "subtxns": {
                txn_id: {
                    "executed": state.executed,
                    "voted": state.voted,
                    "decided": state.decided,
                }
                for txn_id, state in sorted(
                    self.participant.subtxns.items()
                )
            },
            "recovered": None if report is None else {
                "in_doubt": sorted(report.in_doubt),
                "locally_committed": sorted(report.locally_committed),
                "redone": len(report.redone),
                "undone": len(report.undone),
            },
            "messages": self.transport.counts_by_type(),
        }

    def _handle_control(self, body: dict[str, Any], link: _Link) -> None:
        """A submission or an admin command.  Every reply leaves through
        :meth:`TcpTransport.tell`, behind the turn's durability gate."""
        cmd = "submit" if body.get("kind") == "submit" else body.get("cmd")
        reply: dict[str, Any]
        if cmd == "submit":
            self._host(body, link)
            return
        if cmd == "outcome":
            self._ask(str(body.get("txn")), link)
            return
        if cmd in ("drain", "resend"):
            owed = sorted(self.pending.items()) if cmd == "resend" else []
            for txn_id, (decision, sites) in owed:
                if txn_id in self.coordinating:
                    self._again.add(txn_id)  # one more after this one
                else:
                    self._resend(txn_id, decision, sites)
            self._settling.append((link, cmd))
            self._settled()
            return
        if cmd == "status":
            if self.obs_sink is not None:
                # Probing a site also drains its event stream, so a
                # collector sees everything up to this status snapshot.
                self.obs_sink.flush()
            reply = self.status()
        elif cmd == "read":
            key = body.get("key")
            reply = {"key": key, "value": self.site.store.snapshot().get(key)}
        elif cmd == "shutdown":
            reply = {"ok": True}
            self.stop()
        else:
            return
        self.transport.tell(link, {"kind": "admin", "cmd": cmd, "reply": reply})

    # -- the coordinator host ------------------------------------------------

    def _host(self, body: dict[str, Any], link: _Link) -> None:
        """Start the coordinator of one submitted transaction."""
        spec = spec_from_json(body.get("spec"))
        try:
            config = CommitConfig(**body.get("commit", {}))
        except TypeError as exc:
            raise WireError(f"malformed commit config: {exc}") from exc
        txn_id = spec.txn_id
        if body.get("scheme", self.scheme.value) != self.scheme.value:
            self._reply(link, txn_id, error=f"{self.site_id} runs {self.scheme.name}")
        elif spec.subtxns[0].site_id != self.site_id:
            self._reply(link, txn_id, error="submit to the first site")
        elif txn_id in self.coordinating:
            # Refused at once, as a participant refuses a reused id.
            self._reply(link, txn_id, outcome={
                "txn_id": txn_id, "committed": False, "rejections": 1,
            })
        else:
            self._callers[txn_id] = [link]
            self.site.wal.append(
                RecordType.COORD_BEGIN, f"coord.{txn_id}",
                sites=spec.site_ids,
            )
            self._coordinate(spec, config, lambda c: c.run())

    def _coordinate(
        self, spec: GlobalTxnSpec, config: CommitConfig,
        work: Callable[[Coordinator], Generator[Event, Any, Any]],
    ) -> None:
        """Run ``work(coordinator)`` for ``spec`` as a live coordination."""
        coordinator = self.engine.coordinator(
            env=self.env, network=self.transport, spec=spec,
            scheme=self.scheme, marking=self.marking, config=config,
            failures=None, acceptors=self.acceptors,
        )
        coordinator.force_decision = partial(self._force_decision, coordinator)
        proc = self.env.process(
            work(coordinator), name=f"coordinator:{spec.txn_id}",
        )
        self.coordinating[spec.txn_id] = proc
        proc.callbacks.append(partial(self._terminated, coordinator))
        self.pump.kick()

    def _force_decision(
        self, coordinator: Coordinator, decision: str, sites: list[str],
    ) -> Cover:
        """The coordinator's forced DECIDE, which stamps its DECISIONs; a
        COMMIT is told behind it."""
        self.site.wal.append(
            RecordType.DECIDE, coordinator.endpoint, force=True,
            decision=decision, sites=list(sites),
        )
        if decision == "COMMIT":
            now = self.env.now
            self._tell(coordinator.spec.txn_id, outcome={
                **vars(coordinator.outcome), "committed": True,
                "decision_time": now, "end_time": now,
            })
        return self.site.wal.cover(coordinator.endpoint)

    def _reply(self, link: _Link, txn_id: str, **body: Any) -> None:
        self.transport.tell(link, {"kind": "told", "txn": txn_id, **body})

    def _tell(self, txn_id: str, **body: Any) -> None:
        for link in self._callers.pop(txn_id, ()):
            self._reply(link, txn_id, **body)

    def _terminated(self, coordinator: Coordinator, event: Event) -> None:
        """A coordination ended: tell its callers, book its decision."""
        txn_id = coordinator.spec.txn_id
        self.transport.unregister(coordinator.endpoint)
        del self.coordinating[txn_id]
        if not event.ok:
            event.defused = True
            error = f"{txn_id}: coordinator failed: {event.value!r}"
            self._failures.append(error)
            self._tell(txn_id, error=error)
        elif isinstance(event.value, TxnOutcome):
            self._tell(txn_id, outcome=vars(event.value))
        decision = (  # a failed spawn logs nothing: presumed abort
            coordinator.decision_log[-1] if coordinator.decision_log
            else "ABORT"
        )
        unacked = [
            s for s in coordinator.decision_sites
            if s not in coordinator.decision_acks
        ]
        if not unacked:
            self.pending.pop(txn_id, None)
            self._again.discard(txn_id)
            self.site.wal.append(RecordType.COORD_END, coordinator.endpoint)
        elif txn_id in self._again:
            self._again.discard(txn_id)
            self._resend(txn_id, decision, unacked)
            return
        else:
            self.pending[txn_id] = (decision, unacked)
        self._settled()

    def _settled(self) -> None:
        """Answer the held drain / resend requests once nothing is live."""
        if self.coordinating or not self._settling:
            return
        reply = {"pending": self._owed(), "failed": self._failures}
        self._failures = []
        for link, cmd in self._settling:
            self.transport.tell(
                link, {"kind": "admin", "cmd": cmd, "reply": reply},
            )
        self._settling.clear()

    def _owed(self) -> dict[str, list[Any]]:
        """:attr:`pending` as JSON: txn -> [decision, unacked sites]."""
        return {
            txn_id: [decision, sites]
            for txn_id, (decision, sites) in sorted(self.pending.items())
        }

    def _ask(self, txn_id: str, link: _Link) -> None:
        """A caller lost its connection: a live undecided coordinator tells
        it as it tells its submitter; otherwise only a ``DECIDE(COMMIT)``
        in the log (on disk once the reply passes the gate) is a commit."""
        if txn_id in self._callers:
            self._callers[txn_id].append(link)
            return
        decided = [
            record.payload["decision"]
            for record in self.site.wal.records_for(f"coord.{txn_id}")
            if record.record_type is RecordType.DECIDE
        ]
        self._reply(link, txn_id, outcome={
            "txn_id": txn_id, "committed": decided[-1:] == ["COMMIT"],
        })

    def _resend(self, txn_id: str, decision: str, sites: list[str]) -> None:
        """One DECISION round to the sites that may not have it."""

        def work(coordinator: Coordinator) -> Generator[Event, Any, Any]:
            coordinator.decision_log.append(decision)
            # the DECIDE this site's WAL already holds
            coordinator.decision_cover = self.site.wal.cover(
                coordinator.endpoint
            )
            return coordinator._decision_phase(decision, sites)

        self.pending[txn_id] = (decision, sites)
        self._coordinate(
            GlobalTxnSpec(txn_id=txn_id),
            replace(self.commit, decision_retries=0), work,
        )

    def _recover_coordinators(self) -> None:
        """Rebuild the coordinator role from the WAL (restart only)."""
        owed: dict[str, tuple[str | None, list[str]]] = {}
        for record in self.site.wal:
            if record.record_type not in _COORD_RECORDS:
                continue
            txn_id = record.txn_id.removeprefix("coord.")
            if record.record_type is RecordType.COORD_END:
                owed.pop(txn_id, None)
            else:
                owed[txn_id] = (
                    record.payload.get("decision"), record.payload["sites"],
                )
        for txn_id, (decision, sites) in sorted(owed.items()):
            if decision is None:
                if self.acceptors:
                    continue  # Paxos Commit: the acceptors decide
                decision = "ABORT"  # presumed abort
                self.site.wal.append(
                    RecordType.DECIDE, f"coord.{txn_id}", force=True,
                    decision=decision, sites=sites,
                )
            self._resend(txn_id, decision, sites)

    def _coordinators_lost(self, endpoints: list[str]) -> None:
        """Connections to coordinators elsewhere closed: unilaterally
        abort what they left unvoted here."""
        for endpoint in endpoints:
            txn_id = endpoint.removeprefix("coord.")
            if txn_id in self.participant.subtxns:
                self.env.process(self._orphaned(txn_id))
        self.pump.kick()

    def _orphaned(self, txn_id: str) -> Generator[Event, Any, None]:
        """Abort an orphaned subtransaction once it has executed (one
        still waiting for a lock would otherwise finish and keep it)."""
        state = self.participant.subtxns[txn_id]
        while not state.executed and self.site.ltm.is_active(txn_id):
            yield self.env.timeout(1.0)
        self.participant.unilateral_abort(txn_id)


def serve_forever(daemon: SiteDaemon) -> None:
    """Blocking entry point used by ``repro serve``."""
    asyncio.run(daemon.run())
