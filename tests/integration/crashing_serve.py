"""``repro serve`` that SIGKILLs itself at one point of a coordination.

``python crashing_serve.py POINT serve S1 --cluster c.json`` runs the
daemon as ``repro serve`` would, with one hook installed:

* ``after-decide`` — right after the fsync that covers a ``DECIDE``
  record, before that turn writes a single frame (the DECISIONs, the told
  reply);
* ``remote-vote`` — when another site's VOTE arrives (it has voted, the
  coordinator has not decided);
* ``remote-executed`` — when another site's SUBTXN_ACK arrives (it has
  executed, no VOTE_REQ has left).

The crash tests in ``test_rt_coordinator_crash.py`` use it to land a
SIGKILL between two specific steps of a real daemon.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))


def die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from repro.net.message import MsgType
    from repro.rt.group_commit import GroupCommitFlusher
    from repro.rt.transport import TcpTransport
    from repro.storage.wal import RecordType

    point, argv = argv[0], argv[1:]
    if point == "after-decide":
        barrier = GroupCommitFlusher.barrier

        async def barrier_then_die(self: GroupCommitFlusher) -> None:
            await barrier(self)
            if any(r.record_type is RecordType.DECIDE for r in self.wal):
                die()

        GroupCommitFlusher.barrier = barrier_then_die  # type: ignore
    else:
        trigger = {
            "remote-vote": MsgType.VOTE,
            "remote-executed": MsgType.SUBTXN_ACK,
        }[point]
        deliver = TcpTransport._deliver_local

        def deliver_or_die(self: TcpTransport, message: object) -> None:
            if (
                message.msg_type is trigger  # type: ignore[attr-defined]
                and message.sender != self.local_site  # type: ignore
            ):
                die()
            deliver(self, message)

        TcpTransport._deliver_local = deliver_or_die  # type: ignore
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
