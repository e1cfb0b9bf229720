"""GroupCommitFlusher: the fsync is the batching window.

The flusher has no hold window and nothing to tune: a barrier with force
points pending is one ``wal.sync()``, a barrier without is free.  What
these tests pin is the contract the transport gate gives the protocol —
no frame that was queued after a forced append reaches a socket before
the fsync covering that append — on both hosts of a group-committed WAL:
the daemon's participant (PREPARE before its YES vote) and its hosted
coordinators (the DECIDE record before its DECISION).
"""

import asyncio
from pathlib import Path

from repro.net.message import Message, MsgType
from repro.rt import group_commit
from repro.rt.client import NetClient
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.rt.group_commit import GroupCommitFlusher
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport, _Link
from repro.sim.engine import Environment
from repro.storage.wal import RecordType, WriteAheadLog

from tests.rt.test_daemon import transfer_spec


def grouped_wal(tmp_path):
    wal = WriteAheadLog("S1", path=str(tmp_path / "site.wal"))
    wal.group_commit = True
    return wal


class SpyWriter:
    """A stream writer that notes the WAL's state at every ``write``."""

    def __init__(self, wal, inner=None):
        self.wal = wal
        self.inner = inner
        #: (frame, wal.fsyncs, wal.needs_sync) per write, in order
        self.writes = []

    def write(self, frame):
        self.writes.append((frame, self.wal.fsyncs, self.wal.needs_sync))
        if self.inner is not None:
            self.inner.write(frame)

    async def drain(self):
        if self.inner is not None:
            await self.inner.drain()

    def is_closing(self):
        return self.inner is not None and self.inner.is_closing()

    def close(self):
        if self.inner is not None:
            self.inner.close()


class TestBarrier:
    def test_noop_with_nothing_pending(self, tmp_path):
        wal = grouped_wal(tmp_path)
        wal.append(RecordType.BEGIN, "T1")  # unforced: nothing to cover
        flusher = GroupCommitFlusher(wal)
        asyncio.run(flusher.barrier())
        assert (flusher.groups, flusher.forces_covered, wal.fsyncs) == (
            0, 0, 0,
        )

    def test_force_points_of_one_drain_share_one_fsync(self, tmp_path):
        wal = grouped_wal(tmp_path)
        flusher = GroupCommitFlusher(wal)
        for i in range(5):  # five handlers, one pump drain
            wal.append(RecordType.PREPARE, f"T{i}", force=True)
        asyncio.run(flusher.barrier())
        assert (flusher.groups, flusher.forces_covered, wal.fsyncs) == (
            1, 5, 1,
        )
        asyncio.run(flusher.barrier())  # nothing new: no second fsync
        assert (flusher.groups, wal.fsyncs) == (1, 1)

    def test_there_is_no_window_left_to_tune(self):
        source = Path(group_commit.__file__).read_text(encoding="utf-8")
        for word in ("sleep", "hold_s", "_adapt", "_leader"):
            assert word not in source
        assert len(source.splitlines()) <= 50


class TestGate:
    def test_a_vote_waits_for_the_fsync_covering_its_prepare(self, tmp_path):
        async def scenario():
            env = Environment()
            cluster = local_cluster(["S1"], data_dir=str(tmp_path))
            transport = TcpTransport(
                env, cluster, RealtimePump(env), local_site="S1",
            )
            wal = grouped_wal(tmp_path)
            transport.durability_gate = GroupCommitFlusher(wal).barrier
            spy = SpyWriter(wal)
            link = _Link(transport)
            link.writer = spy
            transport._routes["coord.T1"] = link  # the learned return route
            pump_task = asyncio.ensure_future(transport.pump.run())

            wal.append(RecordType.PREPARE, "T1", force=True)
            transport.send(Message(
                msg_type=MsgType.VOTE, sender="S1", recipient="coord.T1",
                txn_id="T1", payload={"vote": "YES"},
                covers=wal.cover("T1"),
            ))
            # Queued, not written; deferred, not synced.
            assert (spy.writes, wal.fsyncs, wal.needs_sync) == ([], 0, True)
            for _ in range(3):
                await asyncio.sleep(0)
            transport.pump.stop()
            await pump_task
            await transport.close()
            return spy.writes

        (write,) = asyncio.run(scenario())
        assert write[1:] == (1, False)

    def test_a_decision_waits_for_the_fsync_covering_its_decide(
        self, tmp_path,
    ):
        # S1 hosts T1's coordinator: its DECISION to S2 is the first frame
        # that reveals the DECIDE record in S1's WAL.
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemons = [
                SiteDaemon(s, cluster, time_scale=0.002)
                for s in cluster.site_ids
            ]
            for daemon in daemons:
                await daemon.start()
            host = daemons[0]
            spies = []
            dial = host.transport._dial

            async def spying_dial(site_id):
                link = await dial(site_id)
                if link is not None:
                    link.writer = SpyWriter(host.site.wal, link.writer)
                    spies.append(link.writer)
                return link

            host.transport._dial = spying_dial
            booted = host.site.wal.fsyncs  # the fresh-boot checkpoint
            client = NetClient(cluster, time_scale=0.002)
            try:
                outcomes = await client.run_session([transfer_spec()])
            finally:
                for daemon in daemons:
                    await daemon.shutdown()
            return outcomes, host, [
                (frame, fsyncs - booted, needs_sync)
                for spy in spies for frame, fsyncs, needs_sync in spy.writes
            ]

        outcomes, host, writes = asyncio.run(scenario())
        assert outcomes[0].committed
        (decision,) = [w for w in writes if b'"DECISION"' in w[0]]
        # the vote's fsync, then the one covering DECIDE (and S1's COMMIT)
        assert decision[1:] == (2, False)
        # The spawn left without touching the disk; VOTE_REQ waited for
        # the fsync of S1's own vote.
        assert [w[1] for w in writes if w is not decision] == [0, 1]
        assert host.flusher.groups == 2
        assert host.flusher.forces_covered == 4
