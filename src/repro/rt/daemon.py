"""SiteDaemon: one site's Participant and Coordinators as a network service.

``repro serve S1 --cluster cluster.json`` builds a :class:`SiteDaemon`:
the unmodified :class:`~repro.commit.participant.Participant` state
machine on its own discrete-event environment, pumped in real time, with
a :class:`~repro.rt.transport.TcpTransport` in place of the simulated
network and a file-backed write-ahead log in place of the in-memory one.

Its :class:`~repro.commit.host.CoordinatorHost`, the one the simulator
builds per site, runs the coordinator of every transaction submitted to
it (the daemon must be the transaction's first site, so the
coordinator's exchanges with this site are in-process deliveries) and
logs to the site's group-committed WAL.  One sequential log holds both
roles, which makes the in-process shortcut safe: the local ACK reaches
the coordinator before the local COMMIT is fsynced, but ``COORD_END``
follows that COMMIT in the log and cannot be durable without it.  The
daemon keeps only the wire: ``submit``; the ``told`` replies, through
:meth:`TcpTransport.tell` behind the barrier that fsyncs what they
reveal; admin ``drain`` (answered once no coordinator is live),
``resend`` and ``outcome``.

Boot: a **first boot** (no WAL file) preloads the site's keys and fsyncs
their checkpoint so they are durable.  A **restart** replays the
log and runs :meth:`Participant.recover` — the classification the
simulated restart oracle checks: *in-doubt* transactions (prepared under
2PL) re-acquire their write locks and block on the decision; *locally
committed* ones (O2PC) have their updates redone and await the decision
with compensation armed.  Then the host rebuilds the coordinator role
from the WAL.  When the connection of a coordinator elsewhere drops, the
host aborts what it left executed and unvoted here.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import replace
from typing import Any

from repro.commit.base import CommitConfig, CommitScheme
from repro.commit.host import CoordinatorHost
from repro.core.marks import MARKS_KEY, MarkingDirectory
from repro.core.protocols import MarkingProtocol, NoProtocol
from repro.harness.system import PROTOCOLS
from repro.ids import COORDINATOR_PREFIX
from repro.protocols import acceptor_ids, engine_for
from repro.protocols.acceptor import Acceptor
from repro.rt.config import ClusterConfig
from repro.rt.group_commit import GroupCommitFlusher
from repro.rt.obs_sink import JsonlEventSink
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport, _Link
from repro.rt.wire import WireError, outcome_to_json, spec_from_json
from repro.sg.judge import HistoryJudge
from repro.sim.engine import Environment
from repro.storage.recovery import RecoveryManager, RestartReport
from repro.storage.wal import Cover, WriteAheadLog
from repro.txn.site import Site
from repro.txn.transaction import TxnOutcome


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

        #: the site's history and marking audit keep O(in-flight) state
        #: (judged by this one site's graph: no daemon sees the union)
        self.judge = HistoryJudge({site_id: self.site})
        self.judge.on_prune.append(self.marking.directory.keep_audit)

        self.commit = commit or CommitConfig()
        self.scheme = scheme
        engine = engine_for(scheme)
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
        #: admin ``drain`` / ``resend`` requests held until nothing is live
        self._settling: list[tuple[_Link, str]] = []
        #: coordinators that failed since the last settled reply
        self._failures: list[str] = []
        #: the coordinators of the transactions this site is first site
        #: of; rebuilt decision rounds make one round each (a ``resend``
        #: request asks for more)
        self.host = CoordinatorHost(
            self.participant, replace(self.commit, decision_retries=0),
            reply=self._told, failed=self._failures, on_end=self._settled,
        )
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
        #: fsync coalescing for the WAL (armed after boot); the transport
        #: awaits its barrier before every write, which checks that no frame
        #: reveals a force point before its covering fsync
        self.flusher = GroupCommitFlusher(self.site.wal)
        #: per-site JSONL event stream (None = observability off)
        self.obs_sink: JsonlEventSink | None = None
        if obs_path is not None:
            self.obs_sink = JsonlEventSink(obs_path)
            self.env.bus.subscribe(self.obs_sink)
            self.env.bus.enable()
        self._pump_task: Any = None
        self._hang_up: asyncio.Task[None] | None = None  # see _fail_stop
        self._stop = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Listen, start the pump, and run boot-time recovery."""
        await self.transport.serve()
        self._pump_task = asyncio.get_running_loop().create_task(
            self.pump.run()
        )
        self._pump_task.add_done_callback(self._fail_stop)
        if self.fresh_boot:
            self.site.load({
                f"k{i}": self.initial_value
                for i in range(self.keys_per_site)
            })
            # load() logs an unforced checkpoint; this fsync makes the
            # initial contents durable so a restart restores them.
            # Boot path: nothing is being served yet, blocking is harmless.
            self.site.wal.sync()  # lint: allow-blocking
        else:
            # Served meanwhile, a submission is refused (as a dead daemon
            # refuses its connection) until host.recover() below.
            self.host.down = True
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
            self.host.recover()
            self.pump.kick()

    async def run(self) -> None:
        """Serve until :meth:`stop`, an admin shutdown frame, or a pump
        failure (which this re-raises)."""
        await self.start()
        await self._stop.wait()
        await self.shutdown()

    def stop(self) -> None:
        """Ask :meth:`run` to exit."""
        self._stop.set()

    def _fail_stop(self, task: asyncio.Task[None]) -> None:
        """A pump that raised answers nothing more: hang up on everyone,
        so callers see a lost connection, and let :meth:`run` exit."""
        if not task.cancelled() and task.exception() is not None:
            self._hang_up = asyncio.ensure_future(self.transport.close())
            self.stop()

    async def shutdown(self) -> None:
        """Stop the pump, close every connection, and close the WAL; then
        re-raise what failed the pump, if anything did."""
        self.pump.stop()
        failure: Exception | None = None
        if self._pump_task is not None:
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            except Exception as exc:
                failure = exc
            self._pump_task = None
        if failure is None:
            await self.transport.flush()  # what the last turn told
        await (self._hang_up or self.transport.close())
        # Shutdown path: the transport is closed, nothing left to starve.
        self.site.wal.close()  # lint: allow-blocking
        if self.obs_sink is not None:
            self.obs_sink.close()
        if failure is not None:
            raise failure

    @property
    def pending(self) -> dict[str, tuple[str, list[str]]]:
        """The host's owed decisions: txn -> (decision, unacked sites)."""
        return self.host.pending

    # -- admin surface -------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Snapshot of this daemon's state (admin ``status`` frames)."""
        report = self.restart_report
        return {
            "site": self.site_id,
            "now": self.env.now,
            "fresh_boot": self.fresh_boot,
            "wal_records": self.site.wal.appended,
            "wal_retained": len(self.site.wal),
            "wal_low_water": self.site.wal.low_water,
            "checkpoints": self.site.wal.checkpoints,
            "settled_ids": len(self.site.wal.settled),
            "history_ops": len(self.site.history.ops),
            "audit_entries": sum(
                len(m.transitions)
                for m in self.marking.directory.machines.values()
            ),
            # still one per lock interval and per grant: they grow with uptime
            "lock_holds": len(self.site.locks.hold_log),
            "lock_waits": len(self.site.locks.wait_log),
            "torn_records_truncated": self.site.wal.torn_records_truncated,
            "forced_writes": self.site.wal.forced_writes,
            "fsyncs": self.site.wal.fsyncs,
            "fsync_groups": self.flusher.groups,
            "frames_sent": self.transport.frames_sent,
            "messages_framed": self.transport.messages_framed,
            "frames_refused": self.transport.frames_refused,
            "reused_ids_refused": self.participant.reused_ids_refused,
            "coordinators": len(self.host.coordinating),
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
            self._submit(body, link)
            return
        if cmd == "outcome":
            self.host.ask(str(body.get("txn")), link)
            return
        if cmd in ("drain", "resend"):
            host = self.host
            owed = sorted(host.pending.items()) if cmd == "resend" else []
            for txn_id, (decision, sites) in owed:
                if txn_id in host.coordinating:
                    host.again.add(txn_id)  # one more after this one
                else:
                    host.resend(txn_id, decision, sites)
            self.pump.kick()
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

    # -- the coordinator host (the wire) ---------------------------------------

    def _submit(self, body: dict[str, Any], link: _Link) -> None:
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
        elif txn_id in self.host.coordinating:
            # Refused at once, as a participant refuses a reused id.
            self._reply(link, txn_id, outcome={
                "txn_id": txn_id, "committed": False, "rejections": 1,
            })
        else:
            # The DECIDE's real fsync is its cost here: nothing is slept.
            self.host.submit(
                spec, replace(config, decision_log_delay=0.0), link,
            )
            self.pump.kick()

    def _reply(
        self, link: _Link, txn_id: str, covers: Cover | None = None, **body: Any,
    ) -> None:
        self.transport.tell(link, {"kind": "told", "txn": txn_id, **body}, covers)

    def _told(
        self, link: _Link, txn_id: str, covers: Cover | None,
        outcome: TxnOutcome | str,
    ) -> None:
        """The host's answer to a caller (a string: a failed coordinator)."""
        if isinstance(outcome, str):
            self._reply(link, txn_id, covers, error=outcome)
        else:
            self._reply(link, txn_id, covers, outcome=outcome_to_json(outcome))

    def _settled(self) -> None:
        """Answer the held drain / resend requests once nothing is live."""
        if self.host.coordinating or not self._settling:
            return
        reply = {"pending": self._owed(), "failed": list(self._failures)}
        self._failures.clear()
        for link, cmd in self._settling:
            self.transport.tell(
                link, {"kind": "admin", "cmd": cmd, "reply": reply},
            )
        self._settling.clear()

    def _owed(self) -> dict[str, list[Any]]:
        """The host's pending decisions as JSON: txn -> [decision,
        unacked sites]."""
        return {
            txn_id: [decision, sites]
            for txn_id, (decision, sites) in sorted(self.host.pending.items())
        }

    def _coordinators_lost(self, endpoints: list[str]) -> None:
        """Connections to coordinators elsewhere closed: their orphans
        here are aborted."""
        self.host.orphaned([e.removeprefix(COORDINATOR_PREFIX) for e in endpoints])
        self.pump.kick()


def serve_forever(daemon: SiteDaemon) -> None:
    """Blocking entry point used by ``repro serve``."""
    asyncio.run(daemon.run())
