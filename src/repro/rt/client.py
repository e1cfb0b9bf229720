"""NetClient: drive global transactions against a live cluster.

The client is the coordinator's host: it runs the unmodified
:class:`~repro.commit.coordinator.Coordinator` state machine on a local
pumped environment, registering the coordinator endpoint
(``coord.<txn>``) on its :class:`~repro.rt.transport.TcpTransport`.
Daemons learn the return route from the first frame and send
SUBTXN_ACK/VOTE/ACK replies back over the same connection.

The coordinator's decision is durable here, as the paper (and Gray &
Lamport's "+1 stable write") require: the client owns a group-committed
:class:`~repro.storage.wal.WriteAheadLog` at
``<data_dir>/client.decisions.wal``.  The coordinator force-writes a
``DECIDE`` record (transaction, decision, sites) through the
``force_decision`` seam instead of sleeping out the simulator's
``decision_log_delay``; the log's flusher is the client transport's
durability gate, so no DECISION frame leaves before its covering fsync.
Once every site acknowledged, an unforced ``COMMIT``/``ABORT`` end record
closes the entry.  Construction replays the file: a ``DECIDE`` without
its end record is a pending decision, so a client killed after deciding
comes back knowing what it owes to whom (:meth:`NetClient.resend_pending`).
One coordinating client per ``data_dir``.

A transaction is committed the moment that ``DECIDE`` record is on disk —
the *commit point* — and that is when :meth:`NetClient.submit` tells its
caller.  The ACK round after it lets the coordinator forget and tells the
caller nothing, so the coordinator process runs on behind the caller as an
*ack tail* (DECISION, ACKs, retransmission, end record), bounded to one
tail per session and drained before the pump stops.

``failures=None`` is deliberate: over real sockets nobody hands the
coordinator an oracle of site liveness — a dead participant is exactly a
missed timeout, which is the paper's failure model and what the protocol
already handles.

Each :meth:`run_transaction` call runs one event loop (dial, execute,
hang up), which is the natural shape for the ``repro client`` CLI.
:meth:`run_pipelined` is the throughput shape: a bounded window of
concurrent coordinator sessions multiplexed on one pump and one set of
per-site connections.  Demultiplexing is free — every coordinator
registers its own ``coord.<txn>`` endpoint, so inbound frames route by
transaction id — and the unmodified engines run as concurrent
simulation processes exactly like the sim's concurrent-coordinator
bench.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import replace
from functools import partial
from typing import Any

from repro.commit.base import CommitConfig, CommitScheme
from repro.core.marks import MarkingDirectory
from repro.core.protocols import MarkingProtocol
from repro.harness.system import PROTOCOLS
from repro.net.message import Message, MsgType
from repro.protocols import acceptor_ids, engine_for
from repro.rt.config import ClusterConfig
from repro.rt.group_commit import GroupCommitFlusher
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport
from repro.rt.wire import read_frame, write_frame
from repro.sim.engine import Environment
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome


class NetClient:
    """Coordinator driver for the networked backend."""

    def __init__(
        self,
        cluster: ClusterConfig,
        scheme: CommitScheme = CommitScheme.O2PC,
        protocol: str | MarkingProtocol = "none",
        commit: CommitConfig | None = None,
        time_scale: float = 0.01,
    ) -> None:
        self.cluster = cluster
        self.scheme = scheme
        self.commit = commit or CommitConfig()
        self.time_scale = time_scale
        self.env = Environment()
        self.pump = RealtimePump(self.env, time_scale=time_scale)
        self.transport = TcpTransport(self.env, cluster, self.pump)
        if isinstance(protocol, MarkingProtocol):
            self.marking: MarkingProtocol = protocol
        else:
            self.marking = PROTOCOLS[protocol](directory=MarkingDirectory())
        self.engine = engine_for(scheme)
        self.acceptors: tuple[str, ...] = (
            acceptor_ids(len(cluster.site_ids))
            if self.engine.acceptor is not None else ()
        )
        self.outcomes: list[TxnOutcome] = []
        #: wall-clock seconds from submit until the caller was told, in the
        #: order callers were told: the commit point (``DECIDE`` on disk)
        #: for a COMMIT, termination (every ACK in, or the ack rounds
        #: expired) for anything else
        self.latencies: list[float] = []
        #: wall-clock seconds from submit until the coordinator terminated
        #: and its decision was settled (completion order) — what
        #: ``latencies`` held while submit waited for the ACK round
        self.settle_latencies: list[float] = []
        #: every live ack tail, plus any that failed (kept so the failure
        #: leaves with the session instead of with the garbage collector)
        self._tails: set[asyncio.Task[TxnOutcome]] = set()
        #: most ack tails ever outstanding; never above the session count,
        #: which :meth:`_with_pump` sets as the cap
        self.ack_tails_peak = 0
        self._tail_cap = 1
        log_path = cluster.decision_log_path()
        os.makedirs(os.path.dirname(log_path) or ".", exist_ok=True)
        #: the durable decision log: a forced DECIDE before any DECISION
        #: frame, an unforced COMMIT/ABORT end record once all sites acked
        self.wal = WriteAheadLog("client", path=log_path)
        #: decisions some site never acknowledged: txn -> (decision,
        #: pending sites), rebuilt from the log at construction.  A daemon
        #: that was down for the decision round restarts *in doubt* and
        #: blocks until someone re-sends — that someone is
        #: :meth:`resend_pending`.
        self.pending_decisions: dict[str, tuple[str, list[str]]] = {}
        for record in self.wal:
            if record.record_type is RecordType.DECIDE:
                self.pending_decisions[record.txn_id] = (
                    record.payload["decision"], record.payload["sites"],
                )
            else:
                self.pending_decisions.pop(record.txn_id, None)
        # Group commit: DECIDE appends are deferred to the flusher, and
        # every outbound flush passes its barrier before reaching a socket.
        self.wal.group_commit = True
        self.flusher = GroupCommitFlusher(self.wal)
        self.transport.durability_gate = self.flusher.barrier

    # -- running transactions ------------------------------------------------

    async def submit(self, spec: GlobalTxnSpec) -> TxnOutcome:
        """Run one global transaction (the pump must already be running).

        Resolves at the commit point: a COMMIT returns as soon as its
        ``DECIDE`` record is on disk, and the coordinator runs on behind
        the caller as an ack tail.  An ABORT or a failed spawn phase
        resolves at termination, because ``compensated_sites`` comes from
        the ACKs.  The outcome of a COMMIT is a copy the tail never
        touches, with ``end_time`` = ``decision_time``
        (its ``latency`` reads submit → decision); :attr:`outcomes` holds
        the same objects.
        """
        started = time.perf_counter()
        for tail in self._tails:
            if tail.done():  # only a failed tail is done and still listed
                tail.result()
        coordinator = self.engine.coordinator(
            env=self.env,
            network=self.transport,
            spec=spec,
            scheme=self.scheme,
            marking=self.marking,
            config=self.commit,
            failures=None,
            acceptors=self.acceptors,
        )
        loop = asyncio.get_running_loop()
        commit_point: asyncio.Future[None] = loop.create_future()
        coordinator.force_decision = partial(
            self._force_decision, spec.txn_id, commit_point
        )
        proc = self.env.process(
            coordinator.run(), name=f"coordinator:{spec.txn_id}"
        )
        termination = loop.create_task(
            self._await_termination(coordinator, proc, started)
        )
        await asyncio.wait(
            (commit_point, termination), return_when=asyncio.FIRST_COMPLETED
        )
        # Decided COMMIT, ACKs outstanding.  One tail per session: with the
        # cap reached (a silent site) this waits for a tail to settle — or
        # for its own coordinator, as submit used to.
        while not termination.done() and self.ack_tails >= self._tail_cap:
            await asyncio.wait(
                [termination, *(t for t in self._tails if not t.done())],
                return_when=asyncio.FIRST_COMPLETED,
            )
        if not commit_point.done():
            outcome = termination.result()
        else:
            # Told at the commit point, even when the ACK round has ended
            # too (it can end in the same pump turn as the tail this submit
            # waited for).  The drain that forced the DECIDE ran on to the
            # first DECISION send before this task woke, so the decision
            # fields are set.
            decided = coordinator.outcome
            outcome = replace(decided, end_time=decided.decision_time)
            if termination.done():
                termination.result()  # a failed coordinator fails submit
            else:
                self._tails.add(termination)
                termination.add_done_callback(self._tail_done)
                self.ack_tails_peak = max(
                    self.ack_tails_peak, self.ack_tails
                )
        # Durable before told.  The transport's gate puts the DECIDE on
        # disk ahead of the DECISION frames, but whether that flush ran
        # before this wake is the event loop's business, not a guarantee.
        await self.flusher.barrier()
        self.outcomes.append(outcome)
        self.latencies.append(time.perf_counter() - started)
        return outcome

    async def _await_termination(
        self, coordinator: Any, proc: Any, started: float,
    ) -> TxnOutcome:
        """Await the coordinator's termination; book its decision round."""
        try:
            outcome: TxnOutcome = await self.pump.wait_for(proc)
        finally:
            # The coordinator endpoint is done; late frames for it drop as
            # unknown_endpoint instead of piling into a dead inbox.
            self.transport.unregister(coordinator.endpoint)
        self.settle_latencies.append(time.perf_counter() - started)
        if coordinator.decision_log:
            self._settle(outcome.txn_id, coordinator.decision_log[-1], [
                s for s in coordinator.decision_sites
                if s not in coordinator.decision_acks
            ])
        return outcome

    @property
    def ack_tails(self) -> int:
        """Coordinators still running behind a resolved submit."""
        return sum(1 for tail in self._tails if not tail.done())

    def _tail_done(self, tail: asyncio.Task[TxnOutcome]) -> None:
        if tail.cancelled() or tail.exception() is None:
            self._tails.discard(tail)

    def _force_decision(
        self, txn_id: str, commit_point: asyncio.Future[None],
        decision: str, sites: list[str],
    ) -> None:
        """The coordinator's forced DECIDE record (fsynced by the gate, or
        by the submit this wakes — whichever gets there first)."""
        self.wal.append(
            RecordType.DECIDE, txn_id, force=True,
            decision=decision, sites=list(sites),
        )
        if decision == "COMMIT":
            commit_point.set_result(None)

    def _settle(self, txn_id: str, decision: str, unacked: list[str]) -> None:
        """Book one decision round: unacked sites stay pending; a fully
        acknowledged decision gets its (unforced) end record."""
        if unacked:
            self.pending_decisions[txn_id] = (decision, unacked)
        else:
            self.pending_decisions.pop(txn_id, None)
            self.wal.append(RecordType[decision], txn_id)

    async def _with_pump(self, body: Any, sessions: int = 1) -> Any:
        """Run ``body()`` with the pump running; tear both down after.

        ``sessions`` caps the ack tails.  They are drained before the pump
        stops, so every decision is settled (and a failed tail has raised)
        by the time this returns.
        """
        self._tail_cap = sessions
        pump_task = asyncio.get_running_loop().create_task(self.pump.run())
        try:
            result = await body()
            await asyncio.gather(*self._tails)
            return result
        finally:
            for tail in self._tails:
                tail.cancel()
            self._tails.clear()
            self.pump.stop()
            try:
                await pump_task
            except asyncio.CancelledError:
                pass
            await self.transport.close()
            # Session over, nothing left to starve: put the trailing end
            # records on disk so a later client does not re-send them.
            self.wal.sync()  # lint: allow-blocking

    async def run_session(
        self, specs: list[GlobalTxnSpec]
    ) -> list[TxnOutcome]:
        """Run transactions sequentially under one pump/loop."""

        async def body() -> list[TxnOutcome]:
            return [await self.submit(spec) for spec in specs]

        return await self._with_pump(body)

    async def run_pipelined(
        self, specs: list[GlobalTxnSpec], sessions: int = 16,
    ) -> list[TxnOutcome]:
        """Run transactions through a bounded window of concurrent sessions.

        Up to ``sessions`` coordinators are in flight at once, all
        multiplexed on this client's pump and per-site connections; the
        window keeps a burst of specs from opening thousands of
        simultaneous coordinator processes.  Outcomes return in ``specs``
        order (:attr:`outcomes` keeps completion order).
        """
        if sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {sessions}")
        window = asyncio.Semaphore(sessions)
        results: list[TxnOutcome | None] = [None] * len(specs)

        async def one(index: int, spec: GlobalTxnSpec) -> None:
            async with window:
                results[index] = await self.submit(spec)

        async def body() -> list[TxnOutcome]:
            await asyncio.gather(
                *(one(i, spec) for i, spec in enumerate(specs))
            )
            return [outcome for outcome in results if outcome is not None]

        return await self._with_pump(body, sessions)

    def run_transaction(self, spec: GlobalTxnSpec) -> TxnOutcome:
        """Blocking convenience wrapper: one transaction, one event loop."""
        return asyncio.run(self.run_session([spec]))[0]

    def run_transactions(
        self, specs: list[GlobalTxnSpec], sessions: int = 1,
    ) -> list[TxnOutcome]:
        """Blocking wrapper: serial (``sessions=1``) or pipelined batch."""
        if sessions <= 1:
            return asyncio.run(self.run_session(specs))
        return asyncio.run(self.run_pipelined(specs, sessions=sessions))

    # -- decision retransmission ---------------------------------------------

    def _resend_one(
        self, txn_id: str, decision: str, pending: list[str],
    ) -> Any:
        """Re-send one logged decision; returns the still-unacked sites."""
        endpoint = f"coord.{txn_id}"
        inbox = self.transport.register(endpoint)
        acked: set[str] = set()
        try:
            for site_id in pending:
                self.transport.send(Message(
                    msg_type=MsgType.DECISION,
                    sender=endpoint,
                    recipient=site_id,
                    txn_id=txn_id,
                    payload={"decision": decision},
                ))
            deadline = self.env.now + self.commit.ack_timeout
            while len(acked) < len(pending):
                msg = yield inbox.get(max(deadline - self.env.now, 0.0))
                if msg is None:
                    break
                if msg.msg_type is MsgType.ACK and msg.sender in pending:
                    acked.add(msg.sender)
        finally:
            # Late ACKs drop as unknown_endpoint (see _await_termination).
            self.transport.unregister(endpoint)
        return sorted(set(pending) - acked)

    async def resend_session(self) -> dict[str, list[str]]:
        """Re-send every pending decision (the pump must be running).

        The client half of the 2PC termination protocol over real sockets:
        a daemon that was down for the decision round restarted *in doubt*
        and blocks (holding its write locks) until the decision reaches it.
        Returns {txn: sites still unacked}; fully acknowledged transactions
        leave :attr:`pending_decisions`.
        """
        results: dict[str, list[str]] = {}
        for txn_id in sorted(self.pending_decisions):
            decision, pending = self.pending_decisions[txn_id]
            proc = self.env.process(
                self._resend_one(txn_id, decision, list(pending)),
                name=f"resend:{txn_id}",
            )
            still: list[str] = await self.pump.wait_for(proc)
            self._settle(txn_id, decision, still)
            results[txn_id] = still
        return results

    def resend_pending(self) -> dict[str, list[str]]:
        """Blocking wrapper for :meth:`resend_session` (own event loop)."""
        return asyncio.run(self._with_pump(self.resend_session))


# -- admin helpers (status / shutdown frames) ---------------------------------

async def _admin_roundtrip(
    cluster: ClusterConfig, site_id: str, cmd: str, **extra: Any,
) -> dict[str, Any] | None:
    spec = cluster.site(site_id)
    reader, writer = await asyncio.open_connection(*spec.address)
    try:
        await write_frame(writer, {"kind": "admin", "cmd": cmd, **extra})
        reply = await read_frame(reader)
    finally:
        writer.close()
    if reply is None:
        return None
    return reply.get("reply")


def site_status(
    cluster: ClusterConfig, site_id: str,
) -> dict[str, Any] | None:
    """Fetch one daemon's status snapshot (``repro client --status``)."""
    return asyncio.run(_admin_roundtrip(cluster, site_id, "status"))


def site_read(
    cluster: ClusterConfig, site_id: str, key: str,
) -> Any:
    """Read one key's committed value from a live daemon's store."""
    reply = asyncio.run(_admin_roundtrip(cluster, site_id, "read", key=key))
    return None if reply is None else reply.get("value")


def site_shutdown(
    cluster: ClusterConfig, site_id: str,
) -> dict[str, Any] | None:
    """Ask one daemon to shut down cleanly."""
    return asyncio.run(_admin_roundtrip(cluster, site_id, "shutdown"))
