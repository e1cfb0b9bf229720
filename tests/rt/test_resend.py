"""Decision retransmission: the coordinator half of the termination protocol.

A daemon that is down for the decision round leaves the coordinator's
retry rounds unacknowledged; the coordinating daemon keeps the decision in
``pending`` and re-sends it on an admin ``resend``
(:meth:`NetClient.resend_pending`) once the site is back.  The down-site
is played by a scripted socket server that speaks the wire protocol up to
its YES vote and then goes silent — so the pending entry is produced
*organically* by the coordinator's own bookkeeping, not planted.

The decision itself is durable: the coordinator force-writes a ``DECIDE``
record (keyed ``coord.<txn>``) into its daemon's WAL before any DECISION
frame, and closes it with ``COORD_END`` once every site acknowledged.  A
restarted daemon replays the file and re-sends every decision without its
end record (``TestDecisionLogReplay``).
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
    unbatch,
    write_frame,
)
from repro.storage.wal import RecordType, WriteAheadLog

from tests.rt.test_daemon import transfer_spec


def terminated(wal, txn_id):
    """True once ``txn_id`` has a COMMIT or ABORT record in ``wal``."""
    return wal.status_of(txn_id) in (RecordType.COMMIT, RecordType.ABORT)


#: short retransmission rounds so the failed decision phase is quick
#: (2 rounds x 10 units x 0.002 s/unit = 40 ms of wall clock)
CLIENT_COMMIT = CommitConfig(ack_timeout=10.0, decision_retries=1)


class SilentSite:
    """A listening fake daemon; :meth:`close` also hangs up on every
    connection, as a dying daemon does."""

    def __init__(self):
        self.server = None
        self.writers = []

    def close(self):
        self.server.close()
        for writer in self.writers:
            writer.close()

    async def wait_closed(self):
        await self.server.wait_closed()


async def start_silent_site(cluster, site_id):
    """A fake daemon: executes and votes YES, never answers a DECISION."""
    site = SilentSite()

    async def handle(reader, writer):
        site.writers.append(writer)
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            for body in unbatch(frame):
                message = message_from_json(body)
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
    site.server = await asyncio.start_server(handle, host, port)
    return site


def resend(client):
    """:meth:`NetClient.resend_pending` from inside a running loop."""
    return asyncio.get_running_loop().run_in_executor(
        None, client.resend_pending,
    )


async def resend_until_acked(client, attempts=20):
    """Re-send until nothing is owed: a site that was down a moment ago
    is still inside the sender's redial backoff for a while."""
    for _ in range(attempts):
        results = await resend(client)
        if not results:
            return results
        await asyncio.sleep(0.1)
    return results


def write_decisions(cluster, site_id, *records):
    """Plant coordinator records in ``site_id``'s WAL, as a daemon killed
    after deciding leaves them."""
    wal = WriteAheadLog(site_id, path=cluster.wal_path(site_id))
    for record_type, txn_id, payload in records:
        wal.append(record_type, f"coord.{txn_id}", force=True, **payload)
    wal.close()


DECIDE_T1 = (
    RecordType.DECIDE, "T1", {"decision": "COMMIT", "sites": ["S1", "S2"]},
)


async def boot(cluster, site_id, **kwargs):
    daemon = SiteDaemon(site_id, cluster, time_scale=0.002, **kwargs)
    await daemon.start()
    return daemon


async def rebooted_with(cluster, *records, commit=CLIENT_COMMIT):
    """S1 booted once (its preload checkpointed), then restarted on a WAL
    that also holds ``records``; returns the restarted daemon."""
    first = await boot(cluster, "S1")
    await first.shutdown()
    write_decisions(cluster, "S1", *records)
    return await boot(cluster, "S1", commit=commit)


class TestPendingDecisions:
    def test_unacked_decision_is_recorded_and_resent(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = await boot(cluster, "S1")
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
            # swallowed every DECISION round, and the coordinator noticed.
            assert outcomes[0].committed
            assert daemon.pending == {"T1": ("COMMIT", ["S2"])}

            # S2 comes back as a real daemon, its log holding the PREPARE
            # the fake's YES vote claimed; the re-sent decision is
            # acknowledged and the pending entry drains.
            wal = WriteAheadLog("S2", path=cluster.wal_path("S2"))
            wal.append(RecordType.PREPARE, "T1", force=True)
            wal.close()
            replacement = await boot(cluster, "S2")
            try:
                results = await resend_until_acked(client)
            finally:
                await replacement.shutdown()
                await daemon.shutdown()
            return results, daemon.pending

        results, pending = asyncio.run(scenario())
        assert results == {}
        assert pending == {}

    def test_resend_keeps_the_entry_while_the_site_is_down(self, tmp_path):
        # Nobody listens on S2's port: the retransmission times out and
        # the decision stays pending for a later attempt.
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = await rebooted_with(cluster, (
                RecordType.DECIDE, "T1",
                {"decision": "COMMIT", "sites": ["S2"]},
            ))
            try:
                return await resend(NetClient(cluster)), dict(daemon.pending)
            finally:
                await daemon.shutdown()

        results, pending = asyncio.run(scenario())
        assert results == {"T1": ["S2"]}
        assert pending == {"T1": ("COMMIT", ["S2"])}

    def test_resend_unregisters_its_coordinator_endpoint(self, tmp_path):
        # Late ACKs for a finished re-send drop as unknown_endpoint, as
        # they do after a finished coordinator, instead of piling into an
        # inbox nobody reads.
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = await rebooted_with(
                cluster,
                (RecordType.DECIDE, "T1",
                 {"decision": "COMMIT", "sites": ["S2"]}),
                (RecordType.DECIDE, "T2",
                 {"decision": "ABORT", "sites": ["S2"]}),
            )
            try:
                await resend(NetClient(cluster))
                return list(daemon.transport._inboxes)
            finally:
                await daemon.shutdown()

        inboxes = asyncio.run(scenario())
        assert not [e for e in inboxes if e.startswith("coord.")]

    def test_acknowledged_decisions_leave_nothing_pending(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemons = [await boot(cluster, s) for s in cluster.site_ids]
            client = NetClient(
                cluster, commit=CLIENT_COMMIT, time_scale=0.002,
            )
            try:
                outcomes = await client.run_session([transfer_spec()])
                return outcomes, dict(daemons[0].pending), [
                    r.record_type for r in daemons[0].site.wal
                    if r.txn_id == "coord.T1"
                ]
            finally:
                for daemon in daemons:
                    await daemon.shutdown()

        outcomes, pending, records = asyncio.run(scenario())
        assert outcomes[0].committed
        assert pending == {}
        assert records == [
            RecordType.COORD_BEGIN, RecordType.DECIDE, RecordType.COORD_END,
        ]


class TestDecisionLogReplay:
    """A daemon killed after deciding comes back knowing what it owes."""

    def test_decide_without_end_record_is_pending(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = await rebooted_with(cluster, DECIDE_T1)
            try:
                return daemon.status()["pending"]
            finally:
                await daemon.shutdown()

        # S2 is down: the restart's re-send is still out, or spent.
        assert asyncio.run(scenario()) == {"T1": ["COMMIT", ["S1", "S2"]]}

    def test_end_record_closes_the_entry(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = await rebooted_with(
                cluster, DECIDE_T1, (RecordType.COORD_END, "T1", {}),
                (RecordType.DECIDE, "T2",
                 {"decision": "ABORT", "sites": ["S2"]}),
            )
            try:
                return dict(daemon.pending)
            finally:
                await daemon.shutdown()

        assert asyncio.run(scenario()) == {"T2": ("ABORT", ["S2"])}

    def test_torn_tail_is_truncated_like_any_wal(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            first = await boot(cluster, "S1")
            await first.shutdown()
            write_decisions(cluster, "S1", DECIDE_T1)
            path = cluster.wal_path("S1")
            intact = os.path.getsize(path)
            with open(path, "ab") as handle:
                handle.write(b"\x00\x00\x01\x00torn mid-append")
            daemon = await boot(cluster, "S1", commit=CLIENT_COMMIT)
            try:
                return (
                    daemon.site.wal.torn_records_truncated,
                    os.path.getsize(path) >= intact, dict(daemon.pending),
                )
            finally:
                await daemon.shutdown()

        torn, kept, pending = asyncio.run(scenario())
        assert (torn, kept) == (1, True)
        assert pending == {"T1": ("COMMIT", ["S1", "S2"])}

    @staticmethod
    async def decide_then_succeed(tmp_path, decide):
        """Two 2PL daemons that prepare, vote YES and then miss every
        DECISION (deaf, as if partitioned); ``decide(cluster, daemons)``
        drives a transaction to its decision, and then S1 — its
        coordinator's host — is dropped.  The partition heals and S1
        restarts on the same WAL: it re-sends what the log says is owed."""
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        daemons = [
            await boot(cluster, s, scheme=CommitScheme.TWO_PL)
            for s in cluster.site_ids
        ]
        for daemon in daemons:
            deliver = daemon.transport._deliver_local
            daemon.transport._deliver_local = (
                lambda message, deliver=deliver:
                message.msg_type is MsgType.DECISION or deliver(message)
            )
        try:
            seen = await decide(cluster, daemons)
            in_doubt = [
                not terminated(d.site.wal, "T1") for d in daemons
            ]
            # S1 dies with its coordinator; nothing after the DECIDE's
            # fsync reaches its log.
            daemons[0].pump.stop()
            await daemons[0].transport.close()
            daemons[0].site.wal._write_buffer.clear()
            del daemons[1].transport._deliver_local  # partition heals
            daemons[0] = await boot(
                cluster, "S1", scheme=CommitScheme.TWO_PL,
                commit=CLIENT_COMMIT,
            )
            owed = {
                txn: sites for txn, (_d, sites) in
                daemons[0].pending.items()
            }
            results = await resend(NetClient(cluster))
            finalized = [terminated(d.site.wal, "T1") for d in daemons]
            records = [
                r.record_type for r in daemons[0].site.wal
                if r.txn_id == "coord.T1"
            ]
        finally:
            for daemon in daemons:
                await daemon.shutdown()
        assert in_doubt == [True, True]
        assert owed == {"T1": ["S1", "S2"]}
        assert results == {}
        assert finalized == [True, True]
        # The end record closes the entry: the next restart owes nothing.
        assert records[-1] is RecordType.COORD_END
        return seen

    def test_a_fresh_client_finalizes_what_a_dead_one_decided(
        self, tmp_path,
    ):
        # The coordinator that decided dies with its daemon without a
        # single ACK; the restarted daemon finds the DECIDE record and
        # finishes the job.
        async def decide(cluster, daemons):
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
        # The daemon tells the caller "committed" once the DECIDE record
        # is on disk; the ACK round runs on behind it.  A daemon killed in
        # that gap leaves a DECIDE without an end record, which is all
        # its restart needs.
        async def decide(cluster, daemons):
            client = NetClient(cluster, time_scale=0.002)
            outcome = await client.submit(transfer_spec())
            client.transport.close()
            return (
                outcome.committed, daemons[0].status()["coordinators"],
                dict(daemons[0].pending),
            )

        abandoned = asyncio.run(self.decide_then_succeed(tmp_path, decide))
        # Told at the commit point, decision round still out, nothing
        # booked yet.
        assert abandoned == (True, 1, {})


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
            daemon = await boot(cluster, "S1", scheme=scheme)
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
            return daemon.pending

        pending = asyncio.run(scenario())
        assert pending == {"T1": ("COMMIT", ["S2"])}
