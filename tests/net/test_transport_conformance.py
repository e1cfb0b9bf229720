"""Shared conformance suite for both Transport implementations.

The protocol core (Coordinator/Participant) is transport-agnostic; that
only holds if every Transport honors the same contract (documented on
:class:`repro.net.transport.Transport`):

1. ``register`` creates a FIFO inbox; ``receive`` yields messages in
   delivery order; ``send`` to a registered endpoint delivers.
2. ``send`` NEVER raises for an unreachable recipient — the message is
   dropped and counted in ``dropped``; the sender learns only by timeout.
3. ``sent`` / ``delivered`` / ``dropped`` counters are per-``MsgType``.
4. ``unregister`` retires a finished endpoint: its messages never reach an
   inbox, and registering the name again gives an empty one.  The one
   difference: a late message is a ``dropped`` (``unknown_endpoint``) frame
   over TCP, but still ``delivered`` — then discarded — in the simulation,
   whose traces must not depend on when a coordinator retired.
5. A message :data:`~repro.net.message.COVERING` names is refused with
   :class:`~repro.errors.ProtocolViolation` unless its stamp is durable:
   at every simulated send, and where the TCP transport writes a frame.

Rule 2 is the failure-semantics mapping this PR documents: the simulated
network's *severed-in-flight* drop (a message on a link that is cut
before delivery) corresponds to the TCP transport's *connection refused /
reset* drop (the daemon died before the frame was handled).  In both
worlds the bytes vanish, nothing is raised at the sender, and the
protocol's timeout machinery is the only failure detector.
"""

import asyncio

import pytest

from repro.errors import ProtocolViolation
from repro.net.message import Message, MsgType
from repro.net.network import LatencyModel, Network
from repro.net.transport import Transport
from repro.obs.events import EventLog, MessageDelivered
from repro.rt.config import local_cluster
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport, _Link
from repro.sim.engine import Environment
from repro.sim.rng import Rng
from repro.storage.wal import RecordType, WriteAheadLog

from tests.rt.test_group_commit import SpyWriter


def msg(recipient, sender="A", msg_type=MsgType.SUBTXN_REQ, txn="T1"):
    return Message(
        msg_type=msg_type, sender=sender, recipient=recipient,
        txn_id=txn, payload={"n": 1},
    )


class TestProtocolClass:
    def test_both_implementations_satisfy_the_protocol(self):
        assert issubclass(Network, Transport)
        assert issubclass(TcpTransport, Transport)

    def test_transport_is_runtime_checkable(self):
        env = Environment()
        network = Network(env, rng=Rng(0), latency=LatencyModel(base=1.0))
        assert isinstance(network, Transport)


class TestSimulatedNetworkContract:
    def setup_method(self):
        self.env = Environment()
        self.net = Network(
            self.env, rng=Rng(0), latency=LatencyModel(base=1.0),
        )
        self.net.register("A")
        self.net.register("B")

    def drain(self):
        self.env.run()

    def test_send_delivers_to_registered_inbox(self):
        self.net.send(msg("B"))
        self.drain()
        assert len(self.net.inbox("B").items) == 1
        assert self.net.delivered[MsgType.SUBTXN_REQ] == 1

    def test_fifo_order(self):
        for i in range(3):
            self.net.send(msg("B", txn=f"T{i}"))
        self.drain()
        txns = [m.txn_id for m in self.net.inbox("B").items]
        assert txns == ["T0", "T1", "T2"]

    def test_send_to_down_recipient_drops_without_raising(self):
        self.net.mark_down("B")
        self.net.send(msg("B"))  # must not raise
        self.drain()
        assert len(self.net.inbox("B").items) == 0
        assert self.net.dropped[MsgType.SUBTXN_REQ] == 1

    def test_severed_in_flight_drops_without_raising(self):
        # The message is already on the wire when the link is cut: the
        # drop happens at (attempted) delivery time, not send time.
        self.net.send(msg("B"))
        self.net.sever("A", "B")
        self.drain()
        assert len(self.net.inbox("B").items) == 0
        assert self.net.dropped[MsgType.SUBTXN_REQ] == 1

    def test_counters_are_per_msg_type(self):
        self.net.send(msg("B", msg_type=MsgType.VOTE_REQ))
        self.net.send(msg("B", msg_type=MsgType.DECISION))
        self.drain()
        assert self.net.sent[MsgType.VOTE_REQ] == 1
        assert self.net.sent[MsgType.DECISION] == 1
        assert self.net.total_sent() == 2

    def test_retired_endpoint_messages_never_reach_an_inbox(self):
        self.net.send(msg("B"))  # in flight when B retires
        self.net.unregister("B")
        self.net.send(msg("B", txn="T2"))  # addressed after: still no raise
        self.drain()
        assert self.net.delivered[MsgType.SUBTXN_REQ] == 2
        assert self.net.dropped[MsgType.SUBTXN_REQ] == 0
        assert "B" not in self.net.endpoints
        assert self.net.register("B").items == []


def start_pump(transport):
    """``send()`` only queues: the frames leave at the end of a pump turn
    (``asyncio.run`` cancels the task with the scenario)."""
    transport.pump_task = asyncio.ensure_future(transport.pump.run())
    return transport


class TestForceBeforeSendConformance:
    """Both seams run :data:`~repro.net.message.COVERING` on what they
    send: ``Network.send`` on every send, ``TcpTransport`` on every write
    (here its ``flush``, with no durability gate installed)."""

    @staticmethod
    def sim_send(message):
        network = Network(
            Environment(), rng=Rng(0), latency=LatencyModel(base=1.0),
        )
        network.register("coord.T1")
        network.send(message)
        return network.sent[MsgType.VOTE]

    @staticmethod
    def tcp_send(message):
        async def scenario():
            env = Environment()
            transport = TcpTransport(
                env, local_cluster(["S1"], data_dir="."), RealtimePump(env),
                local_site="S1",
            )
            link = _Link(transport)
            link.writer = SpyWriter(WriteAheadLog("S1"))
            transport._routes["coord.T1"] = link  # the learned return route
            transport.send(message)
            try:
                await transport.flush()
            finally:
                await transport.close()
            return len(link.writer.writes)

        return asyncio.run(scenario())

    @pytest.mark.parametrize(
        "stamp", ["unstamped", "not yet synced", "durable"],
    )
    def test_both_seams_agree_on_a_yes_vote(self, stamp):
        def vote():
            wal = WriteAheadLog("S1")
            wal.group_commit = True  # a forced append waits for sync()
            wal.append(RecordType.PREPARE, "T1", force=True)
            if stamp == "durable":
                wal.sync()
            return Message(
                msg_type=MsgType.VOTE, sender="S1", recipient="coord.T1",
                txn_id="T1", payload={"vote": "YES"},
                covers=None if stamp == "unstamped" else wal.cover("T1"),
            )

        for seam in (self.sim_send, self.tcp_send):
            if stamp == "durable":
                assert seam(vote()) == 1
            else:
                with pytest.raises(ProtocolViolation, match="VOTE"):
                    seam(vote())


class TestTcpTransportContract:
    """The same contract, over real sockets.

    One listening transport ("S1", the daemon side) and one pure client
    transport.  The client's sends cross a real TCP connection; S1's
    replies ride the learned return route.
    """

    def run_async(self, coro):
        return asyncio.run(coro)

    @staticmethod
    async def make_pair():
        cluster = local_cluster(["S1"], data_dir=".")
        server_env = Environment()
        server_pump = RealtimePump(server_env)
        server = TcpTransport(server_env, cluster, server_pump, "S1")
        server.register("S1")
        await server.serve()
        client_env = Environment()
        client_pump = RealtimePump(client_env)
        client = TcpTransport(client_env, cluster, client_pump)
        client.register("A")
        return start_pump(server), start_pump(client)

    @staticmethod
    async def settle():
        # Let the event loop run the connection/read tasks.
        for _ in range(20):
            await asyncio.sleep(0.005)

    def test_send_delivers_across_a_socket(self):
        async def scenario():
            server, client = await self.make_pair()
            try:
                client.send(msg("S1"))
                await self.settle()
                items = server.inbox("S1").items
                assert len(items) == 1
                assert items[0].txn_id == "T1"
                assert items[0].payload == {"n": 1}
                assert client.sent[MsgType.SUBTXN_REQ] == 1
                assert server.delivered[MsgType.SUBTXN_REQ] == 1
            finally:
                await client.close()
                await server.close()

        self.run_async(scenario())

    def test_wire_hop_latency_is_not_the_unset_sentinel(self):
        # ``send_time`` does not cross the wire.  The receiver used to
        # publish ``now - (-1.0)``; with a wall-anchored clock that is
        # thousands of ticks on an idle daemon, polluting the cluster
        # latency histograms.
        async def scenario():
            server, client = await self.make_pair()
            log = EventLog()
            server.env.bus.subscribe(log)
            server.env.bus.enable()
            server.env.run(until=5000)  # a daemon that has been up a while
            try:
                client.send(msg("S1"))
                await self.settle()
                delivered = [
                    e for e in log.events if isinstance(e, MessageDelivered)
                ]
                assert [e.latency for e in delivered] == [0.0]
                assert server.inbox("S1").items[0].send_time == 5000
            finally:
                await client.close()
                await server.close()

        self.run_async(scenario())

    def test_fifo_order_across_a_socket(self):
        async def scenario():
            server, client = await self.make_pair()
            try:
                for i in range(3):
                    client.send(msg("S1", txn=f"T{i}"))
                await self.settle()
                txns = [m.txn_id for m in server.inbox("S1").items]
                assert txns == ["T0", "T1", "T2"]
            finally:
                await client.close()
                await server.close()

        self.run_async(scenario())

    def test_reply_rides_the_learned_return_route(self):
        async def scenario():
            server, client = await self.make_pair()
            try:
                client.send(msg("S1"))
                await self.settle()
                # S1 replies to "A" — not a configured site, so the only
                # way back is the connection the request arrived on.
                server.send(msg("A", sender="S1",
                                msg_type=MsgType.SUBTXN_ACK))
                await self.settle()
                items = client.inbox("A").items
                assert len(items) == 1
                assert items[0].msg_type is MsgType.SUBTXN_ACK
            finally:
                await client.close()
                await server.close()

        self.run_async(scenario())

    def test_connection_refused_drops_without_raising(self):
        # The TCP analogue of the simulation's recipient-down drop: the
        # daemon is not listening, the connect is refused, the message is
        # counted dropped, and the sender sees no exception.
        async def scenario():
            cluster = local_cluster(["S1"], data_dir=".")  # nobody serves
            env = Environment()
            client = start_pump(
                TcpTransport(env, cluster, RealtimePump(env))
            )
            client.register("A")
            try:
                client.send(msg("S1"))  # must not raise
                await self.settle()
                assert client.dropped[MsgType.SUBTXN_REQ] == 1
                assert client.sent[MsgType.SUBTXN_REQ] == 1
            finally:
                await client.close()

        self.run_async(scenario())

    def test_connection_reset_maps_to_severed_in_flight(self):
        # Establish a live connection, kill the server (the sever), then
        # send again: the frame hits a dead peer.  Whether the OS surfaces
        # that as an immediate reset or the frame silently vanishes, the
        # contract is the same as the simulation's severed-in-flight rule:
        # nothing raises at the sender and the message is never delivered.
        async def scenario():
            server, client = await self.make_pair()
            client.send(msg("S1"))
            await self.settle()
            assert server.delivered[MsgType.SUBTXN_REQ] == 1
            await server.close()  # sever every established link
            await self.settle()
            try:
                client.send(msg("S1", txn="T2"))  # must not raise
                await self.settle()
                # Never delivered; once the death is observed it is a
                # counted drop (refused re-dial), exactly like the
                # simulation counting severed_in_flight.
                assert server.delivered[MsgType.SUBTXN_REQ] == 1
                assert client.dropped[MsgType.SUBTXN_REQ] >= 1
            finally:
                await client.close()

        self.run_async(scenario())

    def test_unreachable_endpoint_drops_at_the_sender(self):
        # No cluster entry and no learned route: the client itself must
        # count the drop (mirror of the simulation's unknown-endpoint
        # handling) rather than raise into protocol code.
        async def scenario():
            server, client = await self.make_pair()
            try:
                client.send(msg("coord.Tx", sender="A",
                                msg_type=MsgType.ACK))
                await self.settle()
                assert client.dropped[MsgType.ACK] == 1
            finally:
                await client.close()
                await server.close()

        self.run_async(scenario())

    def test_frame_for_unhosted_endpoint_drops_at_the_receiver(self):
        # A frame that arrives for an endpoint the daemon does not host
        # is counted dropped by the receiving transport.
        from repro.rt.wire import message_to_json, write_frame

        async def scenario():
            server, client = await self.make_pair()
            try:
                spec = server.cluster.site("S1")
                _, writer = await asyncio.open_connection(*spec.address)
                await write_frame(
                    writer, message_to_json(msg("S9", sender="A",
                                                msg_type=MsgType.ACK)),
                )
                await self.settle()
                assert server.dropped[MsgType.ACK] == 1
                writer.close()
            finally:
                await client.close()
                await server.close()

        self.run_async(scenario())

    def test_retired_endpoint_messages_never_reach_an_inbox(self):
        from repro.rt.wire import message_to_json, write_frame

        async def scenario():
            server, client = await self.make_pair()
            server.register("coord.T1")
            server.unregister("coord.T1")
            try:
                spec = server.cluster.site("S1")
                _, writer = await asyncio.open_connection(*spec.address)
                await write_frame(writer, message_to_json(
                    msg("coord.T1", msg_type=MsgType.ACK)
                ))
                await self.settle()
                assert server.dropped[MsgType.ACK] == 1
                assert server.delivered[MsgType.ACK] == 0
                assert server.register("coord.T1").items == []
                writer.close()
            finally:
                await client.close()
                await server.close()

        self.run_async(scenario())


class TestFramingConformance:
    """Batched and singleton framing are observationally identical.

    The coalescing sender packs every same-drain message for one peer
    into one multi-frame payload; a legacy (or scripted-test) peer sends
    one plain frame per message.  The receiver must not be able to tell:
    same inbox order, same per-type delivered counters.  The simulated
    Network is the third point of the triangle — its same-tick burst
    defines the expected observable behavior.
    """

    def burst(self, recipient):
        return [
            msg(recipient, msg_type=MsgType.SUBTXN_REQ, txn="T0"),
            msg(recipient, msg_type=MsgType.VOTE_REQ, txn="T1"),
            msg(recipient, msg_type=MsgType.DECISION, txn="T2"),
        ]

    @staticmethod
    def observed(transport, endpoint):
        items = transport.inbox(endpoint).items
        return (
            [(m.msg_type, m.txn_id) for m in items],
            {t: n for t, n in transport.delivered.items() if n},
        )

    def expected(self):
        # The simulated network's same-tick burst: the reference order.
        env = Environment()
        net = Network(env, rng=Rng(0), latency=LatencyModel(base=1.0))
        net.register("A")
        net.register("B")
        for m in self.burst("B"):
            net.send(m)
        env.run()
        return self.observed(net, "B")

    def test_coalesced_send_matches_the_sim_reference(self):
        async def scenario():
            server, client = await TestTcpTransportContract.make_pair()
            try:
                for m in self.burst("S1"):
                    client.send(m)
                await TestTcpTransportContract.settle()
                order, delivered = self.observed(server, "S1")
                # the burst really was coalesced: fewer frames than
                # messages left the client
                assert client.messages_framed == 3
                assert client.frames_sent < client.messages_framed
                return order, delivered
            finally:
                await client.close()
                await server.close()

        expected_order, expected_delivered = self.expected()
        order, delivered = asyncio.run(scenario())
        assert order == expected_order
        assert delivered == expected_delivered

    def test_singleton_frames_match_the_sim_reference(self):
        from repro.rt.wire import message_to_json, write_frame

        async def scenario():
            server, client = await TestTcpTransportContract.make_pair()
            try:
                spec = server.cluster.site("S1")
                _, writer = await asyncio.open_connection(*spec.address)
                for m in self.burst("S1"):
                    await write_frame(writer, message_to_json(m))
                await TestTcpTransportContract.settle()
                writer.close()
                return self.observed(server, "S1")
            finally:
                await client.close()
                await server.close()

        assert asyncio.run(scenario()) == self.expected()

    def test_explicit_batch_envelope_matches_the_sim_reference(self):
        from repro.rt.wire import encode_batch, message_to_json

        async def scenario():
            server, client = await TestTcpTransportContract.make_pair()
            try:
                spec = server.cluster.site("S1")
                _, writer = await asyncio.open_connection(*spec.address)
                frames = encode_batch(
                    [message_to_json(m) for m in self.burst("S1")]
                )
                assert len(frames) == 1  # one envelope, one write
                writer.write(frames[0])
                await writer.drain()
                await TestTcpTransportContract.settle()
                writer.close()
                return self.observed(server, "S1")
            finally:
                await client.close()
                await server.close()

        assert asyncio.run(scenario()) == self.expected()

    def test_malformed_batch_closes_the_connection_not_the_daemon(self):
        from repro.rt.wire import encode_frame

        async def scenario():
            server, client = await TestTcpTransportContract.make_pair()
            try:
                spec = server.cluster.site("S1")
                _, writer = await asyncio.open_connection(*spec.address)
                writer.write(encode_frame(
                    {"kind": "batch", "frames": "not-a-list"}
                ))
                await writer.drain()
                await TestTcpTransportContract.settle()
                writer.close()
                # The daemon survives and still serves well-formed peers.
                client.send(msg("S1"))
                await TestTcpTransportContract.settle()
                assert server.delivered[MsgType.SUBTXN_REQ] == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())
