"""SiteDaemon: one site's Participant running as a real network service.

``repro serve S1 --cluster cluster.json`` builds a :class:`SiteDaemon`:
the unmodified :class:`~repro.commit.participant.Participant` state
machine on its own discrete-event environment, pumped in real time, with
a :class:`~repro.rt.transport.TcpTransport` in place of the simulated
network and a file-backed write-ahead log in place of the in-memory one.

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
  the compensating subtransaction — the integration test drives this
  end-to-end.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any

from repro.commit.base import CommitConfig, CommitScheme
from repro.core.marks import MARKS_KEY, MarkingDirectory
from repro.core.protocols import MarkingProtocol, NoProtocol
from repro.harness.system import PROTOCOLS
from repro.protocols import acceptor_ids, engine_for
from repro.protocols.acceptor import Acceptor
from repro.rt.config import ClusterConfig
from repro.rt.group_commit import GroupCommitFlusher
from repro.rt.obs_sink import JsonlEventSink
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport
from repro.rt.wire import encode_frame
from repro.sim.engine import Environment
from repro.storage.recovery import RecoveryManager, RestartReport
from repro.storage.wal import WriteAheadLog
from repro.txn.site import Site


class SiteDaemon:
    """One site of the cluster as a standalone asyncio service."""

    def __init__(
        self,
        site_id: str,
        cluster: ClusterConfig,
        scheme: CommitScheme = CommitScheme.O2PC,
        protocol: str | MarkingProtocol = "none",
        time_scale: float = 0.01,
        keys_per_site: int = 20,
        initial_value: int = 100,
        commit: CommitConfig | None = None,
        group_commit: bool = True,
        obs_path: str | None = None,
    ) -> None:
        self.site_id = site_id
        self.cluster = cluster
        self.env = Environment()
        self.pump = RealtimePump(self.env, time_scale=time_scale)
        self.transport = TcpTransport(
            self.env, cluster, self.pump, local_site=site_id,
        )
        self.transport.admin_handler = self._handle_admin

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

        if isinstance(protocol, MarkingProtocol):
            self.marking: MarkingProtocol = protocol
        else:
            self.marking = PROTOCOLS[protocol](directory=MarkingDirectory())
        if not isinstance(self.marking, NoProtocol):
            self.site.marks_key = MARKS_KEY

        self.commit = commit or CommitConfig()
        engine = engine_for(scheme)
        # Acceptor ensemble: one acceptor co-hosted per daemon, so the
        # cluster is its own 2F+1 ensemble (see ClusterConfig.route_site).
        acceptors = (
            acceptor_ids(len(cluster.site_ids))
            if engine.acceptor is not None else ()
        )
        self.participant = engine.participant(
            site=self.site, network=self.transport, scheme=scheme,
            marking=self.marking, commit=self.commit, acceptors=acceptors,
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
        #: fsync coalescing for the WAL (armed after boot when enabled);
        #: the transport's durability gate routes every outbound frame
        #: through its barrier, so a force point is never acknowledged
        #: before its covering fsync
        self.flusher = GroupCommitFlusher(self.site.wal)
        self._group_commit = group_commit
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
        if self._group_commit:
            self.site.wal.group_commit = True
            self.transport.durability_gate = self.flusher.barrier

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
            "keys": len(self.site.store.snapshot()),
            "subtxns": {
                txn_id: {
                    "executed": state.executed,
                    "voted": state.voted,
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

    def _handle_admin(self, body: dict[str, Any], writer: Any) -> None:
        cmd = body.get("cmd")
        reply: dict[str, Any]
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
        writer.write(encode_frame(
            {"kind": "admin", "cmd": cmd, "reply": reply}
        ))


def serve_forever(daemon: SiteDaemon) -> None:
    """Blocking entry point used by ``repro serve``."""
    asyncio.run(daemon.run())
