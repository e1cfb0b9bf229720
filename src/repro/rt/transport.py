"""TcpTransport: the asyncio socket implementation of ``Transport``.

One transport serves one process — a site daemon (which also listens) or a
client (which only dials out).  Endpoints registered locally get inboxes on
the process's simulation environment; everything else is reached over TCP
using the cluster's site list:

* messages to a configured site are sent over a per-site outbound
  connection (dialed on demand, redialed under capped exponential
  backoff with jitter after failures — see :mod:`repro.rt.backoff`);
* messages to a non-site endpoint (a coordinator, e.g. ``coord.T1``) are
  sent over the connection that endpoint last used to reach us — the
  return-route table every socketed TM keeps, learned from inbound frames.

Outbound traffic is *coalesced*: ``send()`` only enqueues, and a single
flush task drains the queue once the pump yields, packing every message
bound for the same peer connection into one multi-frame batch payload —
one ``writev``-shaped syscall per peer per drain instead of one task and
one syscall per message.  Before anything touches a socket the flush
awaits the host's :attr:`~TcpTransport.durability_gate` (the group-commit
barrier of the daemon's WAL, or of the client's decision log), which is
what lets the WAL defer its fsyncs: no frame can reveal a force point
that is not yet on disk.

Failure semantics match the simulated :class:`~repro.net.network.Network`
by contract (see :mod:`repro.net.transport`): an unreachable recipient —
connection refused (daemon down, the crash case) or reset mid-flight (the
severed-link case) — makes the message *dropped and counted*, never an
exception in the sender's protocol logic.  The sender finds out by
timeout, exactly as in the simulation and exactly as the paper's failure
model demands.

The same :class:`~repro.obs.events` message events are published on the
environment's bus (when enabled), so traces and metrics work identically
on both backends.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import Any, Awaitable, Callable

from repro.errors import UnknownSiteError
from repro.net.message import Message, MsgType
from repro.obs.events import MessageDelivered, MessageDropped, MessageSent
from repro.rt.backoff import RedialPolicy
from repro.rt.config import ClusterConfig
from repro.rt.pump import RealtimePump
from repro.rt.wire import (
    encode_batch,
    message_from_json,
    message_to_json,
    read_frame,
    unbatch,
)
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.store import Store

#: admin frames are handled by a host-installed coroutine: (body, writer)
AdminHandler = Callable[[dict[str, Any], Any], Awaitable[None]]


class _PeerLink:
    """One outbound connection to a configured site daemon."""

    def __init__(self, writer: Any, reader_task: Any) -> None:
        self.writer = writer
        self.reader_task = reader_task

    @property
    def usable(self) -> bool:
        return self.writer is not None and not self.writer.is_closing()

    async def close(self) -> None:
        if self.reader_task is not None:
            self.reader_task.cancel()
            try:
                await self.reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self.reader_task = None
        if self.writer is not None:
            self.writer.close()
            self.writer = None


class TcpTransport:
    """Length-prefixed message transport over asyncio TCP sockets."""

    def __init__(
        self,
        env: Environment,
        cluster: ClusterConfig,
        pump: RealtimePump,
        local_site: str | None = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.pump = pump
        #: the site this process hosts (None for a pure client)
        self.local_site = local_site
        self._inboxes: dict[str, Store] = {}
        self._links: dict[str, _PeerLink] = {}
        #: learned return routes: endpoint id -> stream writer
        self._routes: dict[str, Any] = {}
        self._server: Any = None
        self._conn_tasks: set[Any] = set()
        #: messages awaiting the next outbound flush (coalescing queue)
        self._outbound: list[Message] = []
        self._flush_task: Any = None
        #: host hook awaited before outbound frames hit the socket; daemon
        #: and client install their WAL's group-commit barrier here so no
        #: frame can reveal a force point before its covering fsync
        self.durability_gate: Callable[[], Awaitable[None]] | None = None
        #: redial schedule for dead peer sites (capped exponential + jitter)
        self.redial = RedialPolicy(local_site or "client")
        #: host hook for admin frames (status/shutdown); unset drops them
        self.admin_handler: AdminHandler | None = None
        # -- counters, same shape as Network's (metrics + conformance) --
        self.sent: Counter[MsgType] = Counter()
        self.delivered: Counter[MsgType] = Counter()
        self.dropped: Counter[MsgType] = Counter()
        # -- wire-level accounting (batching effectiveness) --
        #: connect attempts (the backoff tests pin this)
        self.dials = 0
        #: frames written to sockets (each one syscall's worth)
        self.frames_sent = 0
        #: protocol messages carried inside those frames
        self.messages_framed = 0

    # -- Transport surface ---------------------------------------------------

    def register(self, endpoint_id: str) -> Store:
        """Create (or return) the local inbox for ``endpoint_id``."""
        if endpoint_id not in self._inboxes:
            self._inboxes[endpoint_id] = Store(
                self.env, name=f"inbox:{endpoint_id}"
            )
        return self._inboxes[endpoint_id]

    def inbox(self, endpoint_id: str) -> Store:
        """The inbox of a locally registered endpoint."""
        try:
            return self._inboxes[endpoint_id]
        except KeyError:
            raise UnknownSiteError(
                f"endpoint {endpoint_id!r} not registered locally"
            ) from None

    def receive(self, endpoint_id: str) -> Event:
        """Event yielding the next message for a local endpoint."""
        return self.inbox(endpoint_id).get()

    def unregister(self, endpoint_id: str) -> None:
        """Drop a finished endpoint's inbox (a completed coordinator).

        Pipelined clients run thousands of coordinators per connection;
        without this the inbox table grows one dead Store per transaction.
        Late frames for the endpoint fall into the ``unknown_endpoint``
        drop bucket, same as any other unaddressed message.
        """
        self._inboxes.pop(endpoint_id, None)

    def send(self, message: Message) -> None:
        """Send ``message``; remote delivery happens on the event loop.

        Called from protocol code running inside the pump, so an event
        loop is guaranteed to be running.  Remote messages are queued and
        coalesced: the flush task drains the queue once the pump yields,
        so everything produced by one drain shares syscalls.
        """
        message.send_time = self.env.now
        self.sent[message.msg_type] += 1
        bus = self.env.bus
        if bus.enabled:
            bus.publish(MessageSent(
                msg_type=message.msg_type.value, sender=message.sender,
                recipient=message.recipient, txn_id=message.txn_id,
            ))
        if message.recipient in self._inboxes:
            self._deliver_local(message)
            return
        self._outbound.append(message)
        if self._flush_task is None:
            self._flush_task = asyncio.get_running_loop().create_task(
                self._flush_outbound()
            )

    # -- local delivery ------------------------------------------------------

    def _deliver_local(self, message: Message) -> None:
        message.deliver_time = self.env.now
        self._inboxes[message.recipient].put(message)
        self.delivered[message.msg_type] += 1
        bus = self.env.bus
        if bus.enabled:
            bus.publish(MessageDelivered(
                msg_type=message.msg_type.value, sender=message.sender,
                recipient=message.recipient, txn_id=message.txn_id,
                latency=self.env.now - message.send_time,
            ))
        self.pump.kick()

    def _drop(self, message: Message, reason: str) -> None:
        self.dropped[message.msg_type] += 1
        bus = self.env.bus
        if bus.enabled:
            bus.publish(MessageDropped(
                msg_type=message.msg_type.value, sender=message.sender,
                recipient=message.recipient, txn_id=message.txn_id,
                reason=reason,
            ))

    # -- remote delivery -----------------------------------------------------

    async def _flush_outbound(self) -> None:
        """Drain the coalescing queue: one batch payload per peer.

        Runs as the single outbound task.  Each pass first awaits the
        durability gate (group commit: every force point appended before
        these messages were queued gets its covering fsync), then snapshots
        the queue, resolves a writer per message, and writes one
        multi-frame batch per distinct connection.  Messages with no
        usable route fall into the same ``unreachable``/``connection_reset``
        drop buckets as before — coalescing changes the syscall count,
        not the failure semantics.
        """
        try:
            while self._outbound:
                if self.durability_gate is not None:
                    await self.durability_gate()
                batch = self._outbound
                self._outbound = []
                by_writer: dict[int, tuple[Any, list[Message]]] = {}
                for message in batch:
                    writer = await self._writer_for(message.recipient)
                    if writer is None:
                        # Same bucket as the sim's recipient_down drops.
                        self._drop(message, "unreachable")
                        continue
                    by_writer.setdefault(
                        id(writer), (writer, [])
                    )[1].append(message)
                for writer, messages in by_writer.values():
                    frames = encode_batch(
                        [message_to_json(m) for m in messages]
                    )
                    try:
                        for frame in frames:
                            writer.write(frame)
                        await writer.drain()
                        self.frames_sent += len(frames)
                        self.messages_framed += len(messages)
                    except (ConnectionError, OSError):
                        # Reset while the batch was in flight: the TCP
                        # analogue of the severed-in-flight drop.
                        for message in messages:
                            self._drop(message, "connection_reset")
                        await self._retire_writer(writer)
        finally:
            self._flush_task = None

    async def _retire_writer(self, writer: Any) -> None:
        """Forget a dead connection everywhere it is referenced."""
        for site_id, link in list(self._links.items()):
            if link.writer is writer:
                self._links.pop(site_id, None)
                await link.close()
        self._prune_routes(writer)

    def _prune_routes(self, writer: Any) -> None:
        for endpoint, route in list(self._routes.items()):
            if route is writer:
                self._routes.pop(endpoint, None)

    async def _writer_for(self, endpoint_id: str) -> Any:
        # Co-hosted endpoints (Paxos acceptors) route to their daemon.
        host_site = self.cluster.route_site(endpoint_id)
        if host_site is not None:
            link = self._links.get(host_site)
            if link is None or not link.usable:
                link = await self._dial(host_site)
                if link is None:
                    return None
                self._links[host_site] = link
            return link.writer
        writer = self._routes.get(endpoint_id)
        if writer is not None and not writer.is_closing():
            return writer
        return None

    async def _dial(self, site_id: str) -> _PeerLink | None:
        loop = asyncio.get_running_loop()
        if not self.redial.may_dial(site_id, loop.time()):
            # Inside the backoff window: drop without a connect storm.
            return None
        spec = self.cluster.site(site_id)
        self.dials += 1
        try:
            reader, writer = await asyncio.open_connection(*spec.address)
        except (ConnectionError, OSError):
            self.redial.record_failure(site_id, loop.time())
            return None
        self.redial.record_success(site_id)
        task = asyncio.get_running_loop().create_task(
            self._read_loop(reader, writer)
        )
        link = _PeerLink(writer, task)

        def on_peer_gone(_task: Any) -> None:
            # EOF / reset from the peer: retire the link so the next send
            # re-dials (and, if the daemon is really down, counts a drop)
            # instead of writing into a dead socket.
            if self._links.get(site_id) is link:
                self._links.pop(site_id, None)
            if link.writer is not None:
                self._prune_routes(link.writer)
                link.writer.close()
                link.writer = None

        task.add_done_callback(on_peer_gone)
        return link

    # -- inbound -------------------------------------------------------------

    async def serve(self) -> None:
        """Start listening on the local site's configured address."""
        assert self.local_site is not None, "pure clients do not listen"
        spec = self.cluster.site(self.local_site)
        self._server = await asyncio.start_server(
            self._on_connection, spec.host, spec.port,
        )

    async def _on_connection(self, reader: Any, writer: Any) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._read_loop(reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancellation: complete quietly so the streams
            # machinery does not log the cancelled handler task.
            pass
        finally:
            self._conn_tasks.discard(task)
            self._prune_routes(writer)
            writer.close()

    async def _read_loop(self, reader: Any, writer: Any) -> None:
        """Shared frame loop for inbound connections and dialed links.

        A wire frame may be a singleton or a batch envelope; either way
        every carried body goes through the same per-kind handling, so
        counters and delivery order are identical to unbatched framing.
        """
        while True:
            try:
                body = await read_frame(reader)
                bodies = unbatch(body) if body is not None else None
            except Exception:
                return
            if bodies is None:
                return
            for sub in bodies:
                kind = sub.get("kind")
                if kind == "msg":
                    message = message_from_json(sub)
                    # ``send_time`` is not on the wire (it is a reading of
                    # the sender's clock, another process's): stamp the
                    # arrival, so the hop publishes latency 0 rather than
                    # ``now`` minus the unset sentinel.
                    message.send_time = self.env.now
                    # Learn the return route: replies to this sender go
                    # back over this connection.
                    self._routes[message.sender] = writer
                    if message.recipient in self._inboxes:
                        self._deliver_local(message)
                    else:
                        self._drop(message, "unknown_endpoint")
                elif kind == "admin" and self.admin_handler is not None:
                    await self.admin_handler(sub, writer)

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        """Close the server, every link, and cancel in-flight sends."""
        task = self._flush_task
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
            self._flush_task = None
        self._outbound.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in list(self._links.values()):
            await link.close()
        self._links.clear()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._routes.clear()

    # -- accounting (same shape as Network) ----------------------------------

    def total_sent(self) -> int:
        """Total messages handed to the transport."""
        return sum(self.sent.values())

    def counts_by_type(self) -> dict[str, int]:
        """Sent-message counts keyed by message-type name."""
        return {
            t.value: n
            for t, n in sorted(self.sent.items(), key=lambda kv: kv[0].value)
        }
