"""The commit point and the ack tail.

``NetClient.submit`` tells its caller "committed" when the coordinator's
``DECIDE`` record is on disk, not when the last ACK is in.  The coordinator
process runs on behind the caller as an *ack tail*.  Pinned here:

* durable before told — the caller never hears of a decision the log could
  still lose, even when the transport's own flush is running late;
* the tail still does everything the end of ``submit`` used to do
  (``pending_decisions``, end record), is bounded to one per session, and
  is drained before the session returns;
* anything but a COMMIT still resolves at termination;
* DECISION(Tn) stays ahead of SUBTXN_REQ(Tn+1) on each link, so strict 2PL
  sessions do not trip over their own locks;
* a tail that fails fails the session;
* the only frame a closed-loop session ever shares is a daemon's ACK(Tn)
  riding with its SUBTXN_ACK(Tn+1).
"""

import asyncio

import pytest

from repro.commit.base import CommitScheme
from repro.rt import transport
from repro.rt.client import NetClient
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
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


class TestDurableBeforeTold:
    def test_submit_resolves_after_the_fsync_covering_its_decide(
        self, tmp_path,
    ):
        # The transport's flush is made late (as when it sits in a drain
        # of earlier frames), so only submit's own barrier stands between
        # the commit-point wake and the caller.
        async def scenario(cluster, daemons):
            client = NetClient(cluster, time_scale=0.002)
            spies = []
            dial = client.transport._dial

            async def spying_dial(site_id):
                link = await dial(site_id)
                if link is not None:
                    link.writer = SpyWriter(client.wal, link.writer)
                    spies.append(link.writer)
                return link

            async def late_gate():
                for _ in range(20):
                    await asyncio.sleep(0)
                await client.flusher.barrier()

            client.transport._dial = spying_dial
            client.transport.durability_gate = late_gate
            told = []

            async def body():
                outcome = await client.submit(transfer_spec())
                told.append((
                    outcome.committed, client.wal.fsyncs,
                    client.wal.needs_sync, client.ack_tails,
                ))

            await client._with_pump(body)
            return told, [w for spy in spies for w in spy.writes]

        told, writes = asyncio.run(with_daemons(tmp_path, scenario))
        assert told == [(True, 1, False, 1)]
        decisions = [w for w in writes if b'"DECISION"' in w[0]]
        assert len(decisions) == 2  # one per site
        for _frame, fsyncs, needs_sync in decisions:
            assert fsyncs == 1 and not needs_sync
        assert all(w[1] == 0 for w in writes if w not in decisions)


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
            seen, handed = [], []

            async def body():
                for txn_id in ("T1", "T2"):
                    outcome = await client.submit(transfer_spec(txn_id))
                    seen.append((
                        outcome.committed, client.ack_tails,
                        len(client.settle_latencies),
                        sorted(client.pending_decisions),
                    ))
                    handed.append((outcome, outcome.end_time))

            try:
                await client._with_pump(body)
            finally:
                server.close()
                await server.wait_closed()
                await daemon.shutdown()
            return seen, handed, client

        seen, handed, client = asyncio.run(scenario())
        # T1 was told at its commit point: its tail is still out, nothing
        # is settled.  T2 reached its commit point with the one slot
        # taken, so it was told only once T1's tail had given up.
        assert seen[0] == (True, 1, 0, [])
        committed, tails, settled, pending = seen[1]
        assert committed and tails <= 1 and settled >= 1 and "T1" in pending
        # The session drained T2's tail before it returned.
        assert client.ack_tails == 0 and client.ack_tails_peak == 1
        assert client.pending_decisions == {
            "T1": ("COMMIT", ["S2"]), "T2": ("COMMIT", ["S2"]),
        }
        # What the caller was handed is complete and stays as handed over:
        # the tail fills in the coordinator's own outcome, not this copy.
        assert client.outcomes == [outcome for outcome, _ in handed]
        for outcome, end_time in handed:
            assert outcome.end_time == end_time == outcome.decision_time
            assert outcome.latency > 0
        told, settled = client.latencies, client.settle_latencies
        assert len(told) == len(settled) == 2
        assert told[0] < settled[0] and settled[0] >= 0.9 * ACK_ROUNDS_S
        assert told[1] >= 0.9 * ACK_ROUNDS_S  # the cap, not the commit point

    def test_an_abort_resolves_at_termination(self, tmp_path):
        async def scenario(cluster, daemons):
            client = NetClient(cluster, time_scale=0.002)
            seen = []

            async def body():
                outcome = await client.submit(
                    transfer_spec(vote=VotePolicy.FORCE_NO)
                )
                seen.append((
                    outcome.committed, list(outcome.compensated_sites),
                    client.ack_tails, dict(client.pending_decisions),
                ))

            await client._with_pump(body)
            return seen, client

        seen, client = asyncio.run(with_daemons(tmp_path, scenario))
        assert seen == [(False, ["S1"], 0, {})]
        assert client.ack_tails_peak == 0
        assert client.latencies[0] >= client.settle_latencies[0]

    def test_two_pl_session_never_waits_on_its_own_locks(self, tmp_path):
        # DECISION(Tn) is queued ahead of SUBTXN_REQ(Tn+1) on the same
        # FIFO link, so the next transfer finds k0 unlocked.
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
            return outcomes, client, waits

        outcomes, client, waits = asyncio.run(
            with_daemons(tmp_path, scenario, scheme=CommitScheme.TWO_PL)
        )
        assert [o.committed for o in outcomes] == [True] * 12
        assert client.ack_tails_peak <= 1
        assert client.pending_decisions == {}
        assert len(waits) == 24 and not any(waits)  # every grant immediate

    def test_a_tail_that_raises_fails_the_session(self, tmp_path):
        async def scenario(cluster, daemons):
            client = NetClient(cluster, time_scale=0.002)

            def explode(txn_id):
                raise RuntimeError(f"tail of {txn_id}")

            # Called by the coordinator process after the last ACK.
            client.marking.on_transaction_terminated = explode
            with pytest.raises(RuntimeError, match="tail of T1"):
                await client.run_session([transfer_spec()])
            return client

        client = asyncio.run(with_daemons(tmp_path, scenario))
        # The caller had been told before the tail blew up.
        assert [o.committed for o in client.outcomes] == [True]
        assert client.settle_latencies == []


class TestFraming:
    def test_a_session_shares_no_frame_but_an_ack_with_the_next_reply(
        self, tmp_path, monkeypatch,
    ):
        # With submit back at the commit point a daemon that was off the
        # CPU can read DECISION(Tn) and SUBTXN_REQ(Tn+1) in one wake and
        # answer both in one frame.  Nothing else one closed-loop session
        # does can share a frame: the client writes DECISION(Tn) before the
        # caller hears of Tn, and waits for SUBTXN_ACK(Tn+1) before it
        # sends more.  Here every daemon dozes off after it has voted.
        batches = []
        dozing = {}  # connection -> bytes that arrived while it dozed
        encode_batch = transport.encode_batch
        data_received = transport._Link.data_received

        def recording(bodies):
            batches.append([(b["type"], b["txn"]) for b in bodies])
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
        assert sum(len(batch) for batch in batches) == 12 * 12
        shared = [batch for batch in batches if len(batch) > 1]
        # at most once per site and transaction boundary: 12 messages in
        # no fewer than 10 frames
        assert 0 < len(shared) <= 2 * 11
        for batch in shared:
            (ack, done), (reply, spawned) = batch
            assert (ack, reply) == ("ACK", "SUBTXN_ACK")
            assert int(spawned[1:]) == int(done[1:]) + 1
