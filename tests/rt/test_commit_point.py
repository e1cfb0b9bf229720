"""The commit point, told by the coordinating daemon.

A transaction's coordinator runs in the daemon of its first site, and that
daemon tells the caller "committed" when the coordinator's ``DECIDE``
record is on disk, not when the last ACK is in.  The coordinator runs on
behind the caller (DECISION, ACKs, retransmission, end record).  Pinned
here:

* durable before told — the told reply leaves behind the durability gate
  that fsyncs its ``DECIDE``, even when that gate is running late, and the
  transport's write seam refuses a told commit its ``DECIDE`` does not
  cover;
* the rest of the decision round still happens (``pending``, end record)
  and a session returns only once it is over;
* anything but a COMMIT is told at termination;
* DECISION(Tn) stays ahead of SUBTXN_REQ(Tn+1) on each link, so strict 2PL
  sessions do not trip over their own locks;
* a coordinator that fails after telling fails the session;
* the only frame a closed-loop session ever shares is a daemon's ACK(Tn)
  riding with its SUBTXN_ACK(Tn+1).
"""

import asyncio

import pytest

from repro.commit.base import CommitScheme
from repro.errors import CommitProtocolError, ProtocolViolation
from repro.rt import transport
from repro.rt.client import NetClient
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.rt.pump import RealtimePump
from repro.rt.transport import TcpTransport
from repro.sim.engine import Environment
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn.transaction import VotePolicy

from tests.rt.test_daemon import transfer_spec
from tests.rt.test_group_commit import SpyWriter
from tests.rt.test_resend import CLIENT_COMMIT, start_silent_site

#: two ack rounds of ``CLIENT_COMMIT`` in wall seconds
ACK_ROUNDS_S = 2 * CLIENT_COMMIT.ack_timeout * 0.002


async def with_daemons(tmp_path, scenario, scheme=CommitScheme.O2PC):
    """Run ``scenario(cluster, daemons)`` on two in-process daemons."""
    cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
    daemons = [
        SiteDaemon(s, cluster, scheme=scheme, time_scale=0.002)
        for s in cluster.site_ids
    ]
    for daemon in daemons:
        await daemon.start()
    try:
        return await scenario(cluster, daemons)
    finally:
        for daemon in daemons:
            await daemon.shutdown()


class TellSpy:
    """Wraps the writer of every connection a daemon accepts and notes,
    at each write, whether the WAL holds a DECIDE and still needs a sync."""

    def __init__(self, monkeypatch, daemon):
        self.writes = []
        made = transport._Link.connection_made
        spy = self

        def connection_made(link, writer):
            if link.owner is daemon.transport:
                writer = Spied(writer, daemon.site.wal, spy.writes)
            made(link, writer)

        monkeypatch.setattr(transport._Link, "connection_made", connection_made)


class Spied:
    def __init__(self, inner, wal, writes):
        self.inner, self.wal, self.writes = inner, wal, writes

    def write(self, frame):
        decided = any(r.record_type is RecordType.DECIDE for r in self.wal)
        self.writes.append((frame, decided, self.wal.needs_sync))
        self.inner.write(frame)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestDurableBeforeTold:
    def test_submit_resolves_after_the_fsync_covering_its_decide(
        self, tmp_path, monkeypatch,
    ):
        # The gate is made late (as when it sits behind a slow disk): the
        # told reply still waits for it, because it leaves through the
        # same flush as the frames.
        async def scenario(cluster, daemons):
            host = daemons[0]
            spy = TellSpy(monkeypatch, host)
            barrier = host.flusher.barrier

            async def late_gate():
                for _ in range(20):
                    await asyncio.sleep(0)
                await barrier()

            host.transport.durability_gate = late_gate
            client = NetClient(cluster, time_scale=0.002)
            outcomes = await client.run_session([transfer_spec()])
            return outcomes, spy.writes

        outcomes, writes = asyncio.run(with_daemons(tmp_path, scenario))
        assert outcomes[0].committed
        (told,) = [w for w in writes if b'"told"' in w[0]]
        # written after the DECIDE was appended, and after its fsync
        assert told[1:] == (True, False)

    @pytest.mark.parametrize("committed", [True, False])
    def test_only_a_told_commit_needs_its_decide(self, committed):
        # The write seam poses a told COMMIT as a DECISION(COMMIT): it
        # needs a durable DECIDE stamp; anything else reveals nothing.
        async def scenario():
            env = Environment()
            sink = TcpTransport(
                env, local_cluster(["S1"], data_dir="."), RealtimePump(env),
            )
            link = transport._Link(sink)
            link.writer = SpyWriter(WriteAheadLog("S1"))
            sink.tell(link, {"kind": "told", "txn": "T1", "outcome": {
                "txn_id": "T1", "committed": committed,
            }})
            try:
                await sink.flush()
            finally:
                await sink.close()
            return link.writer.writes

        if committed:
            with pytest.raises(ProtocolViolation, match="stamped None"):
                asyncio.run(scenario())
        else:
            assert len(asyncio.run(scenario())) == 1


class TestAckTail:
    def test_silent_site_resolves_at_commit_point_and_settles_in_the_tail(
        self, tmp_path,
    ):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = SiteDaemon("S1", cluster, time_scale=0.002)
            await daemon.start()
            server = await start_silent_site(cluster, "S2")
            client = NetClient(
                cluster, commit=CLIENT_COMMIT, time_scale=0.002,
            )
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                outcomes = await client.run_session(
                    [transfer_spec("T1"), transfer_spec("T2")]
                )
                settled = loop.time() - started
                return outcomes, client, settled, dict(daemon.pending)
            finally:
                server.close()
                await server.wait_closed()
                await daemon.shutdown()

        outcomes, client, settled, pending = asyncio.run(scenario())
        # Both were told at their commit points, long before S2's silence
        # ran out their ack rounds ...
        assert [o.committed for o in outcomes] == [True, True]
        for told in client.latencies:
            assert told < 0.9 * ACK_ROUNDS_S
        # ... and the session returned only once the daemon had settled
        # both rounds, which left both decisions owed to S2.
        assert settled >= 0.9 * ACK_ROUNDS_S
        assert pending == {
            "T1": ("COMMIT", ["S2"]), "T2": ("COMMIT", ["S2"]),
        }
        for outcome in outcomes:
            assert outcome.end_time == outcome.decision_time
            assert outcome.latency > 0

    def test_an_abort_resolves_at_termination(self, tmp_path):
        async def scenario(cluster, daemons):
            client = NetClient(cluster, time_scale=0.002)
            outcomes = await client.run_session(
                [transfer_spec(vote=VotePolicy.FORCE_NO)]
            )
            return outcomes, daemons[0].status()

        outcomes, status = asyncio.run(with_daemons(tmp_path, scenario))
        # compensated_sites comes from S1's ACK: told at termination
        assert [(o.committed, o.compensated_sites) for o in outcomes] == [
            (False, ["S1"]),
        ]
        assert (status["coordinators"], status["pending"]) == (0, {})

    def test_two_pl_session_never_waits_on_its_own_locks(self, tmp_path):
        # DECISION(Tn) leaves on the S1 -> S2 link in the turn that tells
        # Tn, ahead of SUBTXN_REQ(Tn+1), so the next transfer finds k0
        # unlocked at both sites.
        async def scenario(cluster, daemons):
            client = NetClient(
                cluster, scheme=CommitScheme.TWO_PL, time_scale=0.002,
            )
            specs = [transfer_spec(f"T{i}", amount=1) for i in range(12)]
            outcomes = await client.run_session(specs)
            waits = [
                waited for daemon in daemons
                for _txn, _key, waited in daemon.site.locks.wait_log
            ]
            return outcomes, daemons[0].pending, waits

        outcomes, pending, waits = asyncio.run(
            with_daemons(tmp_path, scenario, scheme=CommitScheme.TWO_PL)
        )
        assert [o.committed for o in outcomes] == [True] * 12
        assert pending == {}
        assert len(waits) == 24 and not any(waits)  # every grant immediate

    def test_a_tail_that_raises_fails_the_session(self, tmp_path):
        async def scenario(cluster, daemons):
            client = NetClient(cluster, time_scale=0.002)

            def explode(txn_id):
                raise RuntimeError(f"tail of {txn_id}")

            # Called by the hosted coordinator after the last ACK.
            daemons[0].marking.on_transaction_terminated = explode
            with pytest.raises(CommitProtocolError, match="tail of T1"):
                await client.run_session([transfer_spec()])
            return client, daemons[0].status()

        client, status = asyncio.run(with_daemons(tmp_path, scenario))
        # The caller had been told before the coordinator blew up, and the
        # daemon kept serving.
        assert [o.committed for o in client.outcomes] == [True]
        assert status["coordinators"] == 0


class TestFraming:
    def test_a_session_shares_no_frame_but_an_ack_with_the_next_reply(
        self, tmp_path, monkeypatch,
    ):
        # A daemon that was off the CPU can read DECISION(Tn) and
        # SUBTXN_REQ(Tn+1) in one wake and answer both in one frame.
        # Nothing else one closed-loop session does can share a frame:
        # S1 writes DECISION(Tn) before it tells Tn, and waits for
        # SUBTXN_ACK(Tn+1) before it sends more.  Here every daemon dozes
        # off after it has voted.
        batches = []
        dozing = {}  # connection -> bytes that arrived while it dozed
        encode_batch = transport.encode_batch
        data_received = transport._Link.data_received

        def recording(bodies):
            batches.append([
                (b.get("type", b["kind"]), b.get("txn")) for b in bodies
                if b["kind"] != "admin"  # the closing drain's reply
            ])
            return encode_batch(bodies)

        def dozy_received(link, data):
            if link in dozing:
                dozing[link] += data
                return
            data_received(link, data)
            if b'"VOTE_REQ"' in data:
                dozing[link] = b""
                asyncio.get_running_loop().call_later(
                    0.03, lambda: data_received(link, dozing.pop(link)),
                )

        monkeypatch.setattr(transport, "encode_batch", recording)
        monkeypatch.setattr(transport._Link, "data_received", dozy_received)

        async def scenario(cluster, daemons):
            client = NetClient(cluster, time_scale=0.002)
            specs = [transfer_spec(f"T{i}", amount=1) for i in range(12)]
            return await client.run_session(specs)

        outcomes = asyncio.run(with_daemons(tmp_path, scenario))
        assert [o.committed for o in outcomes] == [True] * 12
        # six messages cross between the daemons, one reply to the client
        assert sum(len(batch) for batch in batches) == 12 * 7
        shared = [batch for batch in batches if len(batch) > 1]
        # at most once per transaction boundary: 6 messages in no fewer
        # than 5 frames
        assert 0 < len(shared) <= 11
        for batch in shared:
            (ack, done), (reply, spawned) = batch
            assert (ack, reply) == ("ACK", "SUBTXN_ACK")
            assert int(spawned[1:]) == int(done[1:]) + 1
