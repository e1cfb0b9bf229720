"""A Paxos acceptance the leader has counted survives a power loss.

A power loss keeps exactly what was fsynced: the ``power_loss`` fixture
wraps ``os.fsync`` to remember each file's length at its last fsync,
and its ``cut`` truncates every file under a data dir to that length
and deletes every file that was never fsynced.  A process kill keeps
more (the page cache survives it), so the kill-9 tests cannot see an
acknowledgement that ran ahead of its fsync; this one can.

The test is the leader itself, speaking the wire protocol to one
in-process PAXOS daemon (as ``tests/integration/test_rt_kill_restart.py``
does): a ballot-0 ``PAXOS_ACCEPT``, its ``PAXOS_ACCEPTED``, then the
daemon is dropped without ``shutdown()`` (which would flush), the power
goes, and a new daemon boots on what the disk kept.  Its promise at a
higher ballot must still carry the accepted vote, or a recovery leader
could decide against a vote the first leader already counted.
"""

import asyncio
import os
from pathlib import Path

import pytest

from repro.commit.base import CommitScheme
from repro.net.message import Message, MsgType
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.rt.wire import message_from_json, message_to_json, read_frame, \
    write_frame

LEADER = "coord.T1"


class PowerLoss:
    """What the disk is guaranteed to hold: lengths at the last fsync."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        #: (device, inode) -> file length at its last fsync
        self.synced: dict[tuple[int, int], int] = {}
        real_fsync = os.fsync

        def fsync(fd: int) -> None:
            real_fsync(fd)
            stat = os.fstat(fd)
            self.synced[(stat.st_dev, stat.st_ino)] = stat.st_size

        monkeypatch.setattr(os, "fsync", fsync)

    def cut(self, data_dir: Path) -> None:
        """Lose everything under ``data_dir`` that was not fsynced."""
        for path in sorted(data_dir.iterdir()):
            stat = path.stat()
            length = self.synced.get((stat.st_dev, stat.st_ino))
            if length is None:
                path.unlink()
            else:
                os.truncate(path, length)


@pytest.fixture
def power_loss(monkeypatch):
    return PowerLoss(monkeypatch)


async def call(address, msg_type, payload, reply_type):
    """One frame to ``acc.1`` and its reply, over a fresh connection."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        await write_frame(writer, message_to_json(Message(
            msg_type=msg_type, sender=LEADER, recipient="acc.1",
            txn_id="T1", payload=payload,
        )))
        frame = await asyncio.wait_for(read_frame(reader), timeout=10)
    finally:
        writer.close()
    assert frame is not None, "daemon hung up"
    reply = message_from_json(frame)
    assert reply.msg_type is reply_type
    return reply


async def boot(cluster):
    daemon = SiteDaemon(
        "S1", cluster, scheme=CommitScheme.PAXOS, time_scale=0.002,
    )
    await daemon.start()
    return daemon


async def drop(daemon):
    """Stop serving without ``shutdown()``: the WAL is never closed."""
    daemon.pump.stop()
    await daemon._pump_task
    await daemon.transport.close()


def test_counted_acceptance_survives_power_loss(tmp_path, power_loss):
    cluster = local_cluster(["S1"], data_dir=str(tmp_path))
    address = cluster.site("S1").address

    async def scenario():
        daemon = await boot(cluster)
        accepted = await call(address, MsgType.PAXOS_ACCEPT, {
            "ballot": [0, ""], "instance": "S1", "value": "YES",
            "leader": LEADER, "sites": ["S1"],
        }, MsgType.PAXOS_ACCEPTED)
        assert accepted.payload["value"] == "YES"
        await drop(daemon)

        power_loss.cut(tmp_path)

        rebooted = await boot(cluster)
        try:
            return await call(address, MsgType.PAXOS_PREPARE, {
                "ballot": [1, LEADER], "leader": LEADER,
            }, MsgType.PAXOS_PROMISE)
        finally:
            await rebooted.shutdown()

    promise = asyncio.run(scenario())
    assert promise.payload["ballot"] == [1, LEADER]
    assert promise.payload["accepted"] == {"S1": [[0, ""], "YES"]}
    assert promise.payload["sites"] == ["S1"]
