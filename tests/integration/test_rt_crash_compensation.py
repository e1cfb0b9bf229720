"""Compensation after a crash must stay semantic (FINDINGS.md §10).

An O2PC participant that locally committed ``T1`` has released ``T1``'s
locks.  If it is then killed, restarts, serves another transaction on the
same item, and only then learns that ``T1`` aborted, the compensating
subtransaction must *withdraw what T1 deposited* — not put the item back
to what it was before ``T1``, which silently erases the transaction in
between.  The WAL's ``UPDATE`` record names the forward operation, so the
restarted site rebuilds the semantic inverse from its log.  The chaos
soak reaches this window at random; this is the deterministic version
(``tests/compensation/test_compensation_after_restart.py`` is the same
scenario without daemons).
"""

import asyncio
import signal

from repro.net.message import Message, MsgType
from repro.rt.client import site_read, site_shutdown
from repro.rt.wire import (
    message_from_json,
    message_to_json,
    read_frame,
    write_frame,
)
from repro.txn.operations import SemanticOp

from tests.integration.test_rt_kill_restart import (  # noqa: F401 (fixtures)
    cluster,
    cluster_file,
    daemon_ready,
    spawn_daemon,
)


def drive(cluster, txn_id, *rounds):
    """Play coordinator for ``txn_id``: send each frame, await its reply."""
    async def scenario():
        reader, writer = await asyncio.open_connection(
            *cluster.site("S1").address
        )
        try:
            replies = []
            for msg_type, payload in rounds:
                await write_frame(writer, message_to_json(Message(
                    msg_type=msg_type, sender=f"coord.{txn_id}",
                    recipient="S1", txn_id=txn_id, payload=payload,
                )))
                frame = await asyncio.wait_for(read_frame(reader), 10)
                assert frame is not None, "daemon hung up mid-protocol"
                replies.append(message_from_json(frame))
            return replies
        finally:
            writer.close()

    return asyncio.run(scenario())


def subtxn(action, amount):
    return (MsgType.SUBTXN_REQ, {
        "ops": [SemanticOp(action, "k0", {"amount": amount})],
        "transmarks": [],
    })


VOTE_REQ = (MsgType.VOTE_REQ, {"transmarks": []})


def test_compensation_after_restart_keeps_interleaved_updates(
    cluster, cluster_file,  # noqa: F811
):
    proc = spawn_daemon(cluster_file)
    try:
        daemon_ready(cluster)
        # T1 deposits 2 and votes YES: locally committed, locks released.
        *_, vote = drive(cluster, "T1", subtxn("deposit", 2), VOTE_REQ)
        assert vote.payload["vote"] == "YES"
        proc.send_signal(signal.SIGKILL)
        proc.wait()

        proc = spawn_daemon(cluster_file)
        status = daemon_ready(cluster, recovered=True)
        assert status["recovered"]["locally_committed"] == ["T1"]
        # T2 withdraws 3 from the same item and commits.
        *_, ack = drive(
            cluster, "T2", subtxn("withdraw", 3), VOTE_REQ,
            (MsgType.DECISION, {"decision": "COMMIT"}),
        )
        assert ack.msg_type is MsgType.ACK
        assert site_read(cluster, "S1", "k0") == 100 + 2 - 3

        # T1's coordinator never saw the vote: ABORT, compensate.
        (ack,) = drive(
            cluster, "T1", (MsgType.DECISION, {"decision": "ABORT"}),
        )
        assert ack.payload["compensated"] is True
        # T1 is undone, T2 is not.
        assert site_read(cluster, "S1", "k0") == 100 - 3
    finally:
        if proc.poll() is None:
            try:
                site_shutdown(cluster, "S1")
                proc.wait(timeout=5)
            except OSError:
                proc.kill()
                proc.wait()
