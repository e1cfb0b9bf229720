"""One loop turn per hop: ``data_received`` to the inbox, drain → gate → write.

A hop through a process is two event-loop iterations: the one whose read
callbacks put the frames into their inboxes (and kick the pump once), and
the pump's turn — advance the kernel, await the durability gate once,
write one batch per peer.  Pinned here:

* however many frames one read holds, and on however many connections
  frames became readable in that loop iteration, there is one drain, one
  fsync and one write per peer;
* nothing in the turn waits on a peer: a paused connection or a dial that
  hangs holds back its own messages only, timers keep firing, and what is
  written late (on ``resume_writing`` / on connect) is only what already
  passed a gate, and meets the force-before-send check again;
* hostile input at the splitter closes that connection only, is counted,
  and leaves the daemon serving everybody else.
"""

import asyncio

import pytest

from repro.errors import ProtocolViolation
from repro.net.message import Message, MsgType
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.rt.group_commit import GroupCommitFlusher
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport, _Link
from repro.rt.wire import (
    MAX_FRAME,
    encode_batch,
    encode_frame,
    message_to_json,
    read_frame,
    split_frames,
    unbatch,
    write_frame,
)
from repro.sim.engine import Environment
from repro.storage.wal import RecordType

from tests.rt.test_group_commit import SpyWriter, grouped_wal


def request(sender, txn_id, recipient="S1"):
    return Message(
        msg_type=MsgType.VOTE_REQ, sender=sender, recipient=recipient,
        txn_id=txn_id, payload={},
    )


def written(spy):
    """(type, txn) of every message in each write of ``spy``, per write."""
    return [
        [(b["type"], b["txn"]) for b in split_frames(bytearray(frame))]
        for frame, _fsyncs, _needs_sync in spy.writes
    ]


class Site:
    """A voting site without sockets: a pumped transport on a grouped WAL,
    a participant that forces PREPARE and votes YES on every request, and
    connections whose writer is a :class:`SpyWriter`."""

    def __init__(self, tmp_path, cluster_sites=("S1",)):
        self.env = Environment()
        self.pump = RealtimePump(self.env, time_scale=0.001)
        self.transport = TcpTransport(
            self.env,
            local_cluster(list(cluster_sites), data_dir=str(tmp_path)),
            self.pump, local_site="S1",
        )
        self.wal = grouped_wal(tmp_path)
        self.transport.durability_gate = GroupCommitFlusher(self.wal).barrier
        #: turns that had something to flush
        self.flushes = 0
        flush = self.pump.flush

        async def counting_flush():
            self.flushes += bool(self.transport._outbound)
            await flush()

        self.pump.flush = counting_flush
        self.env.process(self.participant())

    def participant(self):
        inbox = self.transport.register("S1")
        while True:
            msg = yield inbox.get()
            self.wal.append(RecordType.PREPARE, msg.txn_id, force=True)
            self.transport.send(Message(
                msg_type=MsgType.VOTE, sender="S1", recipient=msg.sender,
                txn_id=msg.txn_id, payload={"vote": "YES"},
                covers=self.wal.cover(msg.txn_id),
            ))

    def connection(self):
        link = _Link(self.transport)
        link.connection_made(SpyWriter(self.wal))
        return link

    async def __aenter__(self):
        self.task = asyncio.ensure_future(self.pump.run())
        await asyncio.sleep(0)  # the participant is waiting on its inbox
        return self

    async def __aexit__(self, *exc):
        self.pump.stop()
        await self.task
        await self.transport.close()
        #: fsyncs the scenario caused (closing the log is one more)
        self.fsyncs = self.wal.fsyncs
        self.wal.close()


async def turns(n=3):
    for _ in range(n):
        await asyncio.sleep(0)


class TestOneTurn:
    def test_many_frames_in_one_read_are_one_drain_one_fsync_one_write(
        self, tmp_path,
    ):
        async def scenario():
            async with Site(tmp_path) as site:
                link = site.connection()
                # three singletons and a batch of two, read at once
                link.data_received(b"".join(
                    [encode_frame(message_to_json(request("c", f"T{i}")))
                     for i in range(3)]
                    + encode_batch([message_to_json(request("c", f"T{i}"))
                                    for i in (3, 4)])
                ))
                assert link.writer.writes == []  # queued behind the turn
                await turns()
                return site, link.writer

        site, spy = asyncio.run(scenario())
        assert written(spy) == [[("VOTE", f"T{i}") for i in range(5)]]
        assert spy.writes[0][1:] == (1, False)  # after the one fsync
        assert (site.flushes, site.fsyncs) == (1, 1)
        assert site.transport.delivered[MsgType.VOTE_REQ] == 5
        assert (site.transport.frames_sent,
                site.transport.messages_framed) == (1, 5)

    def test_two_connections_readable_in_one_iteration_share_the_turn(
        self, tmp_path,
    ):
        async def scenario():
            async with Site(tmp_path) as site:
                links = [site.connection(), site.connection()]
                # Both read callbacks run before the pump's task does:
                # what two sockets readable at one select() look like.
                for i, link in enumerate(links):
                    link.data_received(encode_frame(
                        message_to_json(request(f"c{i}", f"T{i}"))
                    ))
                await turns()
                return site, [link.writer for link in links]

        site, spies = asyncio.run(scenario())
        assert [written(spy) for spy in spies] == [
            [[("VOTE", "T0")]], [[("VOTE", "T1")]],
        ]
        assert (site.flushes, site.fsyncs) == (1, 1)
        assert site.transport.frames_sent == 2  # one write per peer

    def test_a_paused_connection_parks_only_its_own_queue(self, tmp_path):
        async def scenario():
            async with Site(tmp_path) as site:
                slow, fast = site.connection(), site.connection()
                slow.pause_writing()  # its buffer is over the high-water mark
                slow.data_received(
                    encode_frame(message_to_json(request("slow", "T1")))
                )
                fast.data_received(
                    encode_frame(message_to_json(request("fast", "T2")))
                )
                await turns()
                assert written(fast.writer) == [[("VOTE", "T2")]]
                assert (site.flushes, site.wal.fsyncs) == (1, 1)
                assert slow.writer.writes == []
                assert [m.txn_id for m in slow.gated] == ["T1"]

                # A vote queued but not yet gated, its PREPARE not yet
                # synced: resume_writing must not carry it along.
                site.wal.append(RecordType.PREPARE, "T9", force=True)
                site.transport.send(Message(
                    msg_type=MsgType.VOTE, sender="S1", recipient="slow",
                    txn_id="T9", payload={"vote": "YES"},
                    covers=site.wal.cover("T9"),
                ))
                slow.resume_writing()
                assert written(slow.writer) == [[("VOTE", "T1")]]
                assert site.wal.needs_sync  # T9 waits for its own gate
                await turns()
                return site, slow.writer

        site, spy = asyncio.run(scenario())
        assert written(spy) == [[("VOTE", "T1")], [("VOTE", "T9")]]
        assert spy.writes[1][1:] == (2, False)
        assert site.transport.dropped == {}

    def test_a_late_write_meets_the_covering_check(self, tmp_path):
        # However a message got into a parked queue, its late write on
        # resume_writing checks it: a vote whose PREPARE is not yet synced
        # is refused, not written.
        async def scenario():
            async with Site(tmp_path) as site:
                slow = site.connection()
                slow.pause_writing()
                site.wal.append(RecordType.PREPARE, "T9", force=True)
                slow.gated.append(Message(
                    msg_type=MsgType.VOTE, sender="S1", recipient="slow",
                    txn_id="T9", payload={"vote": "YES"},
                    covers=site.wal.cover("T9"),
                ))
                with pytest.raises(ProtocolViolation, match="durable"):
                    slow.resume_writing()
                return slow.writer

        assert asyncio.run(scenario()).writes == []

    def test_a_hung_dial_delays_only_that_site_and_no_timer(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2", "S3"], data_dir=str(tmp_path))
            arrived = {"S2": [], "S3": []}
            servers = []
            for site_id in arrived:
                async def handle(reader, writer, site_id=site_id):
                    while (body := await read_frame(reader)) is not None:
                        arrived[site_id] += [b["txn"] for b in unbatch(body)]
                    writer.close()

                servers.append(await asyncio.start_server(
                    handle, *cluster.site(site_id).address
                ))
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)
            transport = TcpTransport(env, cluster, pump)
            release = asyncio.Event()
            dial = transport._dial

            async def hanging_dial(site_id):
                if site_id == "S3":
                    await release.wait()  # a SYN nobody answers
                return await dial(site_id)

            transport._dial = hanging_dial
            fired = []

            def sender():
                for txn_id in ("T1", "T2"):
                    for site_id in ("S3", "S2"):
                        transport.send(request("A", txn_id, site_id))
                    yield env.timeout(5)
                    fired.append(env.now)

            env.process(sender())
            task = asyncio.ensure_future(pump.run())
            try:
                await asyncio.sleep(0.05)
                # S2 has both its frames, both timers fired on time, and
                # S3's messages wait for its connect -- not dropped.
                assert arrived == {"S2": ["T1", "T2"], "S3": []}
                assert fired == [5, 10]
                assert [m.txn_id for m in transport._links["S3"].gated] == [
                    "T1", "T2",
                ]
                assert transport.dropped == {}
                release.set()
                await asyncio.sleep(0.05)
                assert arrived["S3"] == ["T1", "T2"]
                assert transport._links["S3"].gated == []
            finally:
                pump.stop()
                await task
                await transport.close()
                await asyncio.sleep(0.01)  # the fake sites read their EOFs
                for server in servers:
                    server.close()
                    await server.wait_closed()

        asyncio.run(scenario())

    def test_a_dial_that_fails_drops_what_waited_for_it(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            env = Environment()
            pump = RealtimePump(env, time_scale=0.001)
            transport = TcpTransport(env, cluster, pump)  # nobody listens
            task = asyncio.ensure_future(pump.run())
            for txn_id in ("T1", "T2"):
                transport.send(request("A", txn_id, "S2"))
            await asyncio.sleep(0.05)
            pump.stop()
            await task
            await transport.close()
            return transport

        transport = asyncio.run(scenario())
        assert transport.dials == 1
        assert transport.dropped == {MsgType.VOTE_REQ: 2}
        assert transport._links == {}


class TestRefusedFrames:
    """Hostile input closes its own connection, is counted, and that is
    all: the daemon goes on serving."""

    HOSTILE = {
        "oversized": (MAX_FRAME + 1).to_bytes(4, "big") + b"x" * 64,
        "not json": (9).to_bytes(4, "big") + b"{not json",
        "no kind": (16).to_bytes(4, "big") + b'{"cmd":"status"}',
        "nested batch": encode_frame({"kind": "batch", "frames": [
            {"kind": "batch", "frames": []},
        ]}),
        "malformed msg": encode_frame({"kind": "msg", "type": "VOTE"}),
        "unhashable recipient": encode_frame({
            "kind": "msg", "type": "VOTE", "sender": "x", "txn": "T",
            "recipient": ["S1"],
        }),
    }

    def test_each_closes_that_connection_only(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1"], data_dir=str(tmp_path))
            daemon = SiteDaemon("S1", cluster, time_scale=0.002)
            await daemon.start()
            try:
                address = cluster.site("S1").address
                bystander = await asyncio.open_connection(*address)
                for name, payload in self.HOSTILE.items():
                    reader, writer = await asyncio.open_connection(*address)
                    writer.write(payload)
                    # the daemon hangs up on it ...
                    assert await asyncio.wait_for(reader.read(), 2) == b"", name
                    writer.close()
                    await writer.wait_closed()
                # ... and on nobody else: the connection that was open all
                # along still gets its status, which counts the refusals.
                await write_frame(
                    bystander[1], {"kind": "admin", "cmd": "status"},
                )
                reply = await asyncio.wait_for(read_frame(bystander[0]), 2)
                bystander[1].close()
                await bystander[1].wait_closed()
                return reply["reply"], daemon.transport.frames_refused
            finally:
                await daemon.shutdown()

        status, refused = asyncio.run(scenario())
        assert refused == len(self.HOSTILE)
        assert status["frames_refused"] == len(self.HOSTILE)

    def test_a_frame_torn_at_every_offset_is_delivered_exactly_once(
        self, tmp_path,
    ):
        size = len(encode_frame(message_to_json(request("c00", "T1"))))

        async def scenario():
            async with Site(tmp_path) as site:
                spies = []
                for cut in range(1, size):
                    # one connection (and return route) per tear
                    frame = encode_frame(
                        message_to_json(request(f"c{cut:02}", "T1"))
                    )
                    link = site.connection()
                    link.data_received(frame[:cut])
                    link.data_received(frame[cut:])
                    spies.append(link.writer)
                await turns()
                return site, spies

        site, spies = asyncio.run(scenario())
        assert site.transport.delivered[MsgType.VOTE_REQ] == size - 1
        assert site.transport.frames_refused == 0
        assert all(written(spy) == [[("VOTE", "T1")]] for spy in spies)

    def test_half_a_frame_then_eof_delivers_nothing(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1"], data_dir=str(tmp_path))
            daemon = SiteDaemon("S1", cluster, time_scale=0.002)
            await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *cluster.site("S1").address
                )
                frame = encode_frame(message_to_json(request("c", "T1")))
                writer.write(frame[:len(frame) // 2])
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(), 2) == b""
                writer.close()
                await writer.wait_closed()
                return daemon.transport
            finally:
                await daemon.shutdown()

        transport = asyncio.run(scenario())
        assert transport.delivered == {} and transport.dropped == {}
        assert transport.frames_refused == 0  # torn, not hostile
        assert transport._live == set()
