"""TcpTransport: the asyncio socket implementation of ``Transport``.

One transport serves one site daemon.  Endpoints registered locally get
inboxes on the process's simulation environment; a configured site is
reached over a per-site connection (dialled on demand, redialled under
capped exponential backoff with jitter — :mod:`repro.rt.backoff`); any
other endpoint (another daemon's coordinator, ``coord.T1``) over the
connection it last used to reach us — the return-route table every
socketed TM keeps.  A route lives for one exchange: the ACK that ends it
forgets it, and a closed connection forgets (and reports, see
:attr:`TcpTransport.routes_lost`) every route it carried, so the table is
bounded by the coordinators this site is still talking to.

Inbound, a connection is an :class:`asyncio.Protocol` whose
``data_received`` splits its bytes into frames and puts the messages
straight into their inboxes.  Outbound, ``send()`` only enqueues: the
pump's turn ends by awaiting :meth:`TcpTransport.flush`, which awaits the
host's :attr:`~TcpTransport.durability_gate` once (the group-commit
barrier of the daemon's WAL) and then writes one batch per peer, each
message checked against :data:`~repro.net.message.COVERING` as the
simulated network checks every send (in-process deliveries share the
daemon's fate and stay unchecked).  Replies to control frames (a
transaction told its outcome, a drained daemon, a status) queue with
:meth:`TcpTransport.tell` and leave the same way.  Nothing in the turn
waits on a peer: a site being dialled or a connection over its write
buffer's high-water mark keeps its already-gated messages in its own queue.

Failure semantics match the simulated :class:`~repro.net.network.Network`
(see :mod:`repro.net.transport`): an unreachable recipient — connection
refused or reset — makes the message *dropped and counted*, never an
exception in the sender's protocol logic; the sender finds out by timeout,
as the paper's failure model demands.  The same message events are
published on the environment's bus, so traces and metrics work
identically on both backends.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro.errors import UnknownSiteError
from repro.net.message import COVERING, Message, MsgType
from repro.obs.events import MessageDelivered, MessageDropped, MessageSent
from repro.rt.backoff import RedialPolicy
from repro.rt.config import ClusterConfig
from repro.rt.pump import RealtimePump
from repro.rt.wire import (
    WireError,
    encode_batch,
    message_from_json,
    message_to_json,
    split_frames,
)
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.store import Store
from repro.storage.wal import Cover


@dataclass(slots=True)
class Told:
    """A control reply (:meth:`TcpTransport.tell`), checked as a DECISION:
    one that reports a commit reveals the DECIDE record a
    ``DECISION(COMMIT)`` reveals; any other reveals nothing."""

    body: dict[str, Any]
    covers: Cover | None = field(default=None, repr=False)
    msg_type = MsgType.DECISION

    @property
    def payload(self) -> dict[str, Any]:
        outcome = self.body.get("outcome")
        return {"decision": "COMMIT"} if outcome and outcome.get("committed") else {}


class _Link(asyncio.Protocol):
    """One TCP connection, dialled or accepted.

    A dialled link exists from its site's first message on and starts out
    ``paused``: what arrives before the connect completes waits in
    :attr:`gated`, exactly as it does behind a full write buffer.
    """

    def __init__(self, owner: TcpTransport, paused: bool = False) -> None:
        self.owner = owner
        #: the asyncio transport, from ``connection_made`` on
        self.writer: Any = None
        #: still dialling, or the write buffer is over its high-water mark
        self.paused = paused
        #: messages (and told replies) that passed a durability gate
        #: while ``paused``
        self.gated: list[Message | Told] = []
        self._buffer = bytearray()

    def connection_made(self, transport: Any) -> None:
        self.writer = transport
        self.owner._live.add(self)

    def data_received(self, data: bytes) -> None:
        """Deliver every complete frame read so far, in this callback.

        Batch members and singletons take the same per-kind handling, so
        counters and delivery order are identical to unbatched framing.  A
        frame that cannot be decoded closes this connection, nothing else.
        """
        owner = self.owner
        self._buffer += data
        try:
            for body in split_frames(self._buffer):
                kind = body["kind"]
                if kind == "msg":
                    message = message_from_json(body)
                    # ``send_time`` is not on the wire (it reads another
                    # process's clock): stamp the arrival, so the hop
                    # publishes latency 0, not ``now`` minus the sentinel.
                    message.send_time = owner.env.now
                    if owner.cluster.route_site(message.sender) is None:
                        # Learn the return route: replies to this
                        # coordinator go back over this connection.
                        owner._routes[message.sender] = self
                    if message.recipient in owner._inboxes:
                        owner._deliver_local(message)
                    else:
                        owner._drop(message, "unknown_endpoint")
                elif owner.control_handler is not None:
                    owner.control_handler(body, self)
        except WireError:
            owner.frames_refused += 1
            self.writer.close()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        gated, self.gated = self.gated, []
        if gated:
            self.owner._write(self, gated)

    def connection_lost(self, exc: Exception | None) -> None:
        # EOF / reset: the next send re-dials (and, if the daemon is really
        # down, counts a drop) instead of writing into a dead socket.
        self.owner._retire(self, "connection_reset")


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
        #: the site this process hosts (None: a transport that only dials)
        self.local_site = local_site
        pump.flush = self.flush
        self._inboxes: dict[str, Store] = {}
        #: the dialled (or dialling) connection to each configured site
        self._links: dict[str, _Link] = {}
        #: learned return routes: endpoint id -> connection
        self._routes: dict[str, _Link] = {}
        #: every open connection, dialled or accepted
        self._live: set[_Link] = set()
        self._server: Any = None
        self._dial_tasks: set[asyncio.Task[None]] = set()
        #: messages awaiting the next turn's flush (coalescing queue)
        self._outbound: list[Message] = []
        #: control replies awaiting the next turn's flush
        self._told: list[tuple[_Link, Told]] = []
        #: host hook awaited before outbound frames hit the socket; the
        #: daemon installs its WAL's group-commit barrier here, which makes
        #: the force points of the turn durable before :meth:`_write` checks
        self.durability_gate: Callable[[], Awaitable[None]] | None = None
        #: redial schedule for dead peer sites (capped exponential + jitter)
        self.redial = RedialPolicy(local_site or "client")
        #: host callback for non-protocol frames (admin, submit), called
        #: with (body, link); unset drops them
        self.control_handler: (
            Callable[[dict[str, Any], _Link], None] | None
        ) = None
        #: host callback for the return routes a closed connection took
        #: with it (the coordinators whose exchange with this site it cut)
        self.routes_lost: Callable[[list[str]], None] | None = None
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
        #: inbound frames refused (oversized, malformed): one closed link each
        self.frames_refused = 0

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

        Remote messages are only queued here: the pump turn that runs the
        calling protocol code ends with :meth:`flush`, so everything one
        drain produced shares a durability gate and one write per peer.
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
        if not self._outbound and not self._told:
            self.pump.kick()  # free inside a drain; gets one, outside
        self._outbound.append(message)

    def tell(
        self, link: _Link, body: dict[str, Any], covers: Cover | None = None,
    ) -> None:
        """Queue a control reply on ``link`` for the end of this turn.

        It leaves behind the turn's durability gate; one that reports a
        commit must be stamped with the DECIDE record that covers it.
        """
        if not self._outbound and not self._told:
            self.pump.kick()
        self._told.append((link, Told(body, covers)))

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

    async def flush(self) -> None:
        """The tail of a pump turn: gate once, then one write per peer.

        The queue is taken *before* the gate is awaited (group commit:
        every force point appended before these messages were queued gets
        its covering fsync), so what is queued while a gate suspends waits
        for the next turn's.  Then every connection gets one multi-frame
        batch; one that is still dialling, or paused, keeps its share.
        """
        batch, self._outbound = self._outbound, []
        told, self._told = self._told, []
        if (batch or told) and self.durability_gate is not None:
            await self.durability_gate()
        by_link: dict[_Link, list[Message | Told]] = {}
        for message in batch:
            link = self._link_for(message)
            if link is not None:
                by_link.setdefault(link, []).append(message)
        for link, reply in told:
            by_link.setdefault(link, []).append(reply)
        for link, messages in by_link.items():
            self._write(link, messages)

    def _write(self, link: _Link, messages: list[Message | Told]) -> None:
        """Check ``messages`` against :data:`~repro.net.message.COVERING`,
        then write them to ``link``.

        The one place frames reach a socket (the late write on connect /
        ``resume_writing`` included) and messages are parked for a link
        that cannot take them now.  A link that died meanwhile drops them:
        the TCP analogue of the severed-in-flight drop.  A :class:`Told`
        reply is framed, not counted (it goes to a client, where no
        protocol message goes, so every frame is one or the other).
        """
        for message in messages:
            covering = COVERING.get(message.msg_type)
            if covering is not None:
                covering.check(message)
        if link.paused:
            link.gated += messages
        elif link.writer.is_closing():
            self._drop_all(messages, "connection_reset")
        else:
            bodies = [
                m.body if isinstance(m, Told) else message_to_json(m)
                for m in messages
            ]
            frames = encode_batch(bodies)
            for frame in frames:
                link.writer.write(frame)
            if not isinstance(messages[0], Told):
                self.frames_sent += len(frames)
                self.messages_framed += len(messages)

    def _drop_all(self, messages: list[Message | Told], reason: str) -> None:
        for message in messages:
            if not isinstance(message, Told):
                self._drop(message, reason)

    def _link_for(self, message: Message) -> _Link | None:
        """The connection ``message`` leaves on; None when it was dropped
        instead (same bucket as the sim's recipient_down drops)."""
        # Co-hosted endpoints (Paxos acceptors) route to their daemon.
        site_id = self.cluster.route_site(message.recipient)
        if site_id is None:
            link = self._routes.get(message.recipient)
            if message.msg_type is MsgType.ACK:
                # The ACK ends the coordinator's exchange with this site.
                self._routes.pop(message.recipient, None)
        else:
            link = self._links.get(site_id)
        if link is not None and (link.paused or not link.writer.is_closing()):
            return link
        loop = asyncio.get_running_loop()
        # Inside the backoff window: drop without a connect storm.
        if site_id is None or not self.redial.may_dial(site_id, loop.time()):
            self._drop(message, "unreachable")
            return None
        # Dialled by its own task: the turn does not wait for the connect.
        link = self._links[site_id] = _Link(self, paused=True)
        task = loop.create_task(self._connect(site_id, link))
        self._dial_tasks.add(task)
        task.add_done_callback(self._dial_tasks.discard)
        return link

    async def _connect(self, site_id: str, link: _Link) -> None:
        """Dial one site; then write (or drop) what waited for it."""
        if await self._dial(site_id) is None:
            self._retire(link, "unreachable")
        else:
            link.resume_writing()

    async def _dial(self, site_id: str) -> _Link | None:
        """Connect the site's link; None, and a backoff entry, on failure."""
        loop = asyncio.get_running_loop()
        link = self._links[site_id]
        self.dials += 1
        try:
            await loop.create_connection(
                lambda: link, *self.cluster.site(site_id).address
            )
        except (ConnectionError, OSError):
            self.redial.record_failure(site_id, loop.time())
            return None
        self.redial.record_success(site_id)
        return link

    def _retire(self, link: _Link, reason: str) -> None:
        """Forget a dead connection everywhere it is referenced."""
        self._live.discard(link)
        for key in [k for k, known in self._links.items() if known is link]:
            del self._links[key]
        lost = [k for k, known in self._routes.items() if known is link]
        for key in lost:
            del self._routes[key]
        gated, link.gated = link.gated, []
        self._drop_all(gated, reason)
        if lost and self.routes_lost is not None:
            self.routes_lost(lost)

    # -- lifecycle -----------------------------------------------------------

    async def serve(self) -> None:
        """Start listening on the local site's configured address."""
        assert self.local_site is not None, "pure clients do not listen"
        spec = self.cluster.site(self.local_site)
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Link(self), spec.host, spec.port,
        )

    async def close(self) -> None:
        """Close the server and every connection; abandon queued sends."""
        self._outbound.clear()
        self._told.clear()
        for task in list(self._dial_tasks):
            task.cancel()
        await asyncio.gather(*self._dial_tasks, return_exceptions=True)
        for link in list(self._live):
            link.writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._links.clear()
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
