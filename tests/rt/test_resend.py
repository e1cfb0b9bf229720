"""Decision retransmission: the client half of the termination protocol.

A daemon that is down for the decision round leaves the coordinator's
retry rounds unacknowledged; the client records the logged decision in
``pending_decisions`` and :meth:`NetClient.resend_pending` re-delivers it
once the site is back.  The down-site is played by a scripted socket
server that speaks the wire protocol up to its YES vote and then goes
silent — so the pending entry is produced *organically* by
``submit()``'s bookkeeping, not planted by the test.

The decision itself is durable: the client force-writes a ``DECIDE``
record to ``<data_dir>/client.decisions.wal`` before any DECISION frame
and replays the file at construction, so the obligation survives the
client process (``TestDecisionLogReplay``).
"""

import asyncio
import os

import pytest

from repro.commit.base import CommitConfig, CommitScheme
from repro.net.message import Message, MsgType
from repro.rt.client import NetClient
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.rt.wire import (
    message_from_json,
    message_to_json,
    read_frame,
    write_frame,
)
from repro.storage.wal import RecordType, WriteAheadLog

from tests.rt.test_daemon import transfer_spec

#: short retransmission rounds so the failed decision phase is quick
#: (2 rounds x 10 units x 0.002 s/unit = 40 ms of wall clock)
CLIENT_COMMIT = CommitConfig(ack_timeout=10.0, decision_retries=1)


async def start_silent_site(cluster, site_id):
    """A fake daemon: executes and votes YES, never answers a DECISION."""

    async def handle(reader, writer):
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            message = message_from_json(frame)
            reply_type = {
                MsgType.SUBTXN_REQ: MsgType.SUBTXN_ACK,
                MsgType.VOTE_REQ: MsgType.VOTE,
            }.get(message.msg_type)
            if reply_type is None:
                continue  # the silence under test
            payload = (
                {"executed": True, "transmarks": []}
                if reply_type is MsgType.SUBTXN_ACK else {"vote": "YES"}
            )
            await write_frame(writer, message_to_json(Message(
                msg_type=reply_type, sender=site_id,
                recipient=message.sender, txn_id=message.txn_id,
                payload=payload,
            )))
        writer.close()

    host, port = cluster.site(site_id).address
    return await asyncio.start_server(handle, host, port)


async def pumped(client, coro_factory):
    """Run one client coroutine with the pump alive around it."""
    pump_task = asyncio.get_running_loop().create_task(client.pump.run())
    try:
        return await coro_factory()
    finally:
        client.pump.stop()
        try:
            await pump_task
        except asyncio.CancelledError:
            pass
        await client.transport.close()


class TestPendingDecisions:
    def test_unacked_decision_is_recorded_and_resent(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = SiteDaemon("S1", cluster, time_scale=0.002)
            await daemon.start()
            server = await start_silent_site(cluster, "S2")
            client = NetClient(
                cluster, commit=CLIENT_COMMIT, time_scale=0.002,
            )
            try:
                outcomes = await client.run_session([transfer_spec()])
            finally:
                server.close()
                await server.wait_closed()

            # Both votes were YES, so the outcome committed — but S2
            # swallowed every DECISION round, and submit() noticed.
            assert outcomes[0].committed
            assert client.pending_decisions == {"T1": ("COMMIT", ["S2"])}

            # S2 comes back as a real daemon; the re-sent decision is
            # acknowledged and the pending entry drains.
            replacement = SiteDaemon("S2", cluster, time_scale=0.002)
            await replacement.start()
            try:
                results = await pumped(client, client.resend_session)
            finally:
                await replacement.shutdown()
                await daemon.shutdown()
            return results, client.pending_decisions

        results, pending = asyncio.run(scenario())
        assert results == {"T1": []}
        assert pending == {}

    def test_resend_keeps_the_entry_while_the_site_is_down(self, tmp_path):
        # Nobody listens on S1's port: the retransmission times out and
        # the decision stays pending for a later attempt.
        cluster = local_cluster(["S1"], data_dir=str(tmp_path))
        client = NetClient(cluster, commit=CLIENT_COMMIT, time_scale=0.002)
        client.pending_decisions["T1"] = ("COMMIT", ["S1"])
        results = client.resend_pending()
        assert results == {"T1": ["S1"]}
        assert client.pending_decisions == {"T1": ("COMMIT", ["S1"])}

    def test_resend_unregisters_its_coordinator_endpoint(self, tmp_path):
        # Late ACKs for a finished re-send drop as unknown_endpoint, as
        # they do after a submitted transaction's coordinator, instead of
        # piling into an inbox nobody reads.
        cluster = local_cluster(["S1"], data_dir=str(tmp_path))
        client = NetClient(cluster, commit=CLIENT_COMMIT, time_scale=0.002)
        client.pending_decisions["T1"] = ("COMMIT", ["S1"])
        client.pending_decisions["T2"] = ("ABORT", ["S1"])
        client.resend_pending()
        assert not [
            endpoint for endpoint in client.transport._inboxes
            if endpoint.startswith("coord.")
        ]

    def test_acknowledged_decisions_leave_nothing_pending(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemons = [
                SiteDaemon(s, cluster, time_scale=0.002)
                for s in cluster.site_ids
            ]
            for daemon in daemons:
                await daemon.start()
            client = NetClient(
                cluster, commit=CLIENT_COMMIT, time_scale=0.002,
            )
            try:
                outcomes = await client.run_session([transfer_spec()])
            finally:
                for daemon in daemons:
                    await daemon.shutdown()
            return outcomes, client.pending_decisions

        outcomes, pending = asyncio.run(scenario())
        assert outcomes[0].committed
        assert pending == {}


def write_decision_log(cluster, *records):
    """Plant ``client.decisions.wal`` as an earlier client left it."""
    wal = WriteAheadLog("client", path=cluster.decision_log_path())
    for record_type, txn_id, payload in records:
        wal.append(record_type, txn_id, force=True, **payload)
    wal.close()


DECIDE_T1 = (
    RecordType.DECIDE, "T1", {"decision": "COMMIT", "sites": ["S1", "S2"]},
)


class TestDecisionLogReplay:
    """A client killed after deciding comes back knowing what it owes."""

    def test_decide_without_end_record_is_pending(self, tmp_path):
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        write_decision_log(cluster, DECIDE_T1)
        client = NetClient(cluster)
        assert client.pending_decisions == {"T1": ("COMMIT", ["S1", "S2"])}

    def test_end_record_closes_the_entry(self, tmp_path):
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        write_decision_log(
            cluster, DECIDE_T1, (RecordType.COMMIT, "T1", {}),
            (RecordType.DECIDE, "T2", {"decision": "ABORT", "sites": ["S2"]}),
        )
        client = NetClient(cluster)
        assert client.pending_decisions == {"T2": ("ABORT", ["S2"])}

    def test_torn_tail_is_truncated_like_any_wal(self, tmp_path):
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        write_decision_log(cluster, DECIDE_T1)
        intact = os.path.getsize(cluster.decision_log_path())
        with open(cluster.decision_log_path(), "ab") as handle:
            handle.write(b"\x00\x00\x01\x00torn mid-append")
        client = NetClient(cluster)
        assert client.wal.torn_records_truncated == 1
        assert os.path.getsize(cluster.decision_log_path()) == intact
        assert client.pending_decisions == {"T1": ("COMMIT", ["S1", "S2"])}

    @staticmethod
    async def decide_then_succeed(tmp_path, decide):
        """Two 2PL daemons that prepare, vote YES and then miss every
        DECISION (deaf, as if partitioned); ``decide(cluster)`` plays the
        client that decides and is dropped; the partition heals and a
        successor on the same data_dir re-sends what the log says is owed."""
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        daemons = [
            SiteDaemon(
                s, cluster, scheme=CommitScheme.TWO_PL, time_scale=0.002,
            )
            for s in cluster.site_ids
        ]
        for daemon in daemons:
            await daemon.start()
            deliver = daemon.transport._deliver_local
            daemon.transport._deliver_local = (
                lambda message, deliver=deliver:
                message.msg_type is MsgType.DECISION or deliver(message)
            )
        try:
            seen = await decide(cluster)
            in_doubt = [
                not d.site.wal.is_terminated("T1") for d in daemons
            ]
            for daemon in daemons:
                del daemon.transport._deliver_local  # partition heals
            successor = NetClient(
                cluster, scheme=CommitScheme.TWO_PL,
                commit=CLIENT_COMMIT, time_scale=0.002,
            )
            owed = dict(successor.pending_decisions)
            results = await successor._with_pump(successor.resend_session)
            finalized = [d.site.wal.is_terminated("T1") for d in daemons]
        finally:
            for daemon in daemons:
                await daemon.shutdown()
        assert in_doubt == [True, True]
        assert owed == {"T1": ("COMMIT", ["S1", "S2"])}
        assert results == {"T1": []}
        assert finalized == [True, True]
        # The end record made it to disk: a third client owes nothing.
        assert NetClient(cluster).pending_decisions == {}
        return seen

    def test_a_fresh_client_finalizes_what_a_dead_one_decided(
        self, tmp_path,
    ):
        # The client that decided is dropped without a single ACK; its
        # successor finds the DECIDE record and finishes the job.
        async def decide(cluster):
            client = NetClient(
                cluster, scheme=CommitScheme.TWO_PL,
                commit=CLIENT_COMMIT, time_scale=0.002,
            )
            outcomes = await client.run_session([transfer_spec()])
            return outcomes[0].committed

        assert asyncio.run(self.decide_then_succeed(tmp_path, decide))

    def test_a_client_abandoned_after_its_commit_point_is_finished(
        self, tmp_path,
    ):
        # submit() tells the caller "committed" once the DECIDE record is
        # on disk; the ACK round runs on behind it.  A client that dies in
        # that gap (here: its pump stops with the tail still out) leaves a
        # DECIDE without an end record, which is all its successor needs.
        async def decide(cluster):
            client = NetClient(
                cluster, scheme=CommitScheme.TWO_PL, time_scale=0.002,
            )
            outcome = await pumped(
                client, lambda: client.submit(transfer_spec()),
            )
            return (
                outcome.committed, client.ack_tails,
                client.settle_latencies, dict(client.pending_decisions),
            )

        abandoned = asyncio.run(self.decide_then_succeed(tmp_path, decide))
        # Told at the commit point, tail still out, nothing booked yet.
        assert abandoned == (True, 1, [], {})


class TestResendAcrossSchemes:
    @pytest.mark.parametrize(
        "scheme", [CommitScheme.TWO_PL, CommitScheme.SHORT],
    )
    def test_silent_participant_leaves_a_pending_entry(
        self, tmp_path, scheme,
    ):
        # The bookkeeping is engine-independent: any scheme whose
        # coordinator runs a decision phase records unacked sites.
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = SiteDaemon(
                "S1", cluster, scheme=scheme, time_scale=0.002,
            )
            await daemon.start()
            server = await start_silent_site(cluster, "S2")
            client = NetClient(
                cluster, scheme=scheme, commit=CLIENT_COMMIT,
                time_scale=0.002,
            )
            try:
                await client.run_session([transfer_spec()])
            finally:
                server.close()
                await server.wait_closed()
                await daemon.shutdown()
            return client.pending_decisions

        pending = asyncio.run(scenario())
        assert pending == {"T1": ("COMMIT", ["S2"])}
