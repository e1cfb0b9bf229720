"""In-process daemon round-trip: two SiteDaemons and a NetClient.

The same Coordinator/Participant code that runs inside ``System`` runs
here over real sockets on localhost — one event loop hosting both
daemons (S1 also hosts the coordinators) and the submitting client,
which keeps the test fast and deterministic while still exercising the
full wire path (submissions, frames, learned return routes, WAL file,
admin surface).
"""

import asyncio

import pytest

from repro.commit.base import CommitConfig, CommitScheme
from repro.rt.client import NetClient
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn.operations import SemanticOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, VotePolicy


def transfer_spec(txn_id="T1", amount=30, vote=VotePolicy.AUTO):
    return GlobalTxnSpec(
        txn_id=txn_id,
        subtxns=[
            SubtxnSpec("S1", [SemanticOp("withdraw", "k0",
                                         {"amount": amount})]),
            SubtxnSpec("S2", [SemanticOp("deposit", "k0",
                                         {"amount": amount})], vote=vote),
        ],
    )


async def run_cluster(tmp_path, specs, scheme=CommitScheme.O2PC):
    cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
    daemons = [
        SiteDaemon(site_id, cluster, scheme=scheme, time_scale=0.002)
        for site_id in cluster.site_ids
    ]
    for daemon in daemons:
        await daemon.start()
    client = NetClient(cluster, scheme=scheme, time_scale=0.002)
    try:
        outcomes = await client.run_session(specs)
        statuses = [daemon.status() for daemon in daemons]
        return outcomes, statuses
    finally:
        for daemon in daemons:
            await daemon.shutdown()


class TestDaemonRoundTrip:
    def test_transfer_commits_across_sockets(self, tmp_path):
        outcomes, statuses = asyncio.run(
            run_cluster(tmp_path, [transfer_spec()])
        )
        outcome = outcomes[0]
        assert outcome.committed
        assert outcome.compensated_sites == ()
        for status in statuses:
            assert status["fresh_boot"] is True
            assert status["keys"] == 20
            # SUBTXN_REQ + VOTE_REQ + DECISION arrived; WAL holds the
            # checkpoint plus the subtransaction's records.
            assert status["wal_records"] > 1
            assert status["subtxns"]["T1"]["voted"] == "YES"

    def test_forced_no_vote_aborts_and_compensates(self, tmp_path):
        # S2 votes NO; S1 has already locally committed its withdraw
        # (O2PC), so the ABORT decision must run compensation at S1.
        outcomes, _ = asyncio.run(run_cluster(
            tmp_path, [transfer_spec(vote=VotePolicy.FORCE_NO)],
        ))
        outcome = outcomes[0]
        assert not outcome.committed
        assert outcome.no_votes == ["S2"]
        assert "S1" in outcome.compensated_sites

    def test_sequential_transactions_share_the_cluster(self, tmp_path):
        specs = [transfer_spec(txn_id=f"T{i}", amount=10) for i in range(3)]
        outcomes, statuses = asyncio.run(run_cluster(tmp_path, specs))
        assert [o.committed for o in outcomes] == [True, True, True]
        assert sorted(statuses[0]["subtxns"]) == ["T0", "T1", "T2"]

    def test_wal_survives_daemon_restart(self, tmp_path):
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))

            daemons = [SiteDaemon(s, cluster, time_scale=0.002)
                       for s in cluster.site_ids]
            for daemon in daemons:
                await daemon.start()
            client = NetClient(cluster, time_scale=0.002)
            try:
                await client.run_session([transfer_spec()])
            finally:
                for daemon in daemons:
                    await daemon.shutdown()

            # Reboot S1 on the same WAL: recovery replays the committed
            # subtransaction instead of reloading pristine keys.
            rebooted = SiteDaemon("S1", cluster, time_scale=0.002)
            assert rebooted.fresh_boot is False
            await rebooted.start()
            try:
                status = rebooted.status()
            finally:
                await rebooted.shutdown()
            return status

        status = asyncio.run(scenario())
        assert status["fresh_boot"] is False
        assert status["recovered"] is not None
        assert status["recovered"]["in_doubt"] == []
        assert status["recovered"]["locally_committed"] == []
        assert status["recovered"]["redone"] >= 1
        assert status["keys"] == 20

    def test_coordinator_records_stay_out_of_participant_recovery(
        self, tmp_path,
    ):
        # S1 hosts T1's coordinator.  Its local ACK skipped the gate, so
        # the coordinator could finish before S1's COMMIT was fsynced:
        # safe only because COORD_END follows that COMMIT in the one log.
        # And recovery, which classifies records by txn id, must not read
        # the coord.T1 records as a transaction.
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemons = [SiteDaemon(s, cluster, time_scale=0.002)
                       for s in cluster.site_ids]
            for daemon in daemons:
                await daemon.start()
            client = NetClient(cluster, time_scale=0.002)
            try:
                await client.run_session([transfer_spec()])
            finally:
                for daemon in daemons:
                    await daemon.shutdown()
            rebooted = SiteDaemon("S1", cluster, time_scale=0.002)
            await rebooted.start()
            try:
                return list(rebooted.site.wal), rebooted.restart_report
            finally:
                await rebooted.shutdown()

        records, report = asyncio.run(scenario())
        lsn = {(r.txn_id, r.record_type): r.lsn for r in records}
        assert lsn[("coord.T1", RecordType.COORD_END)] > lsn[
            ("T1", RecordType.COMMIT)
        ]
        classified = [
            *report.redone, *report.undone, *report.in_doubt,
            *report.locally_committed,
        ]
        assert "T1" in classified
        assert not [t for t in classified if t.startswith("coord.")]

    def test_two_pl_scheme_also_commits(self, tmp_path):
        outcomes, _ = asyncio.run(run_cluster(
            tmp_path, [transfer_spec()], scheme=CommitScheme.TWO_PL,
        ))
        assert outcomes[0].committed

    def test_a_reused_transaction_id_is_refused_and_serving_goes_on(
        self, tmp_path,
    ):
        # Three client sessions, as three `repro client` runs would be:
        # T1, T1 again, then a fresh T2.
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemons = [SiteDaemon(s, cluster, time_scale=0.002)
                       for s in cluster.site_ids]
            for daemon in daemons:
                await daemon.start()
            client = NetClient(cluster, time_scale=0.002)
            try:
                outcomes = []
                for spec in (
                    transfer_spec("T1"), transfer_spec("T1"),
                    transfer_spec("T2", amount=10),
                ):
                    outcomes += await client.run_session([spec])
                return outcomes, client.latencies, [
                    (d.status(), d.site.store.snapshot()["k0"])
                    for d in daemons
                ]
            finally:
                for daemon in daemons:
                    await daemon.shutdown()

        outcomes, latencies, sites = asyncio.run(scenario())
        assert [o.committed for o in outcomes] == [True, False, True]
        # Refused at once, not aborted by the spawn timeout.
        assert outcomes[1].rejections == 1
        assert latencies[1] < CommitConfig().spawn_timeout * 0.002
        # Exactly one T1 (30) and one T2 (10) moved between the sites.
        assert [k0 for _status, k0 in sites] == [60, 140]
        # The spawn is sequential and stopped at S1's refusal.
        assert [s["reused_ids_refused"] for s, _k0 in sites] == [1, 0]
        for status, _k0 in sites:
            assert status["subtxns"]["T1"]["voted"] == "YES"


class TestCompetitorSchemesOverSockets:
    """Paxos Commit and Short-Commit ride the same daemons unchanged.

    A two-daemon cluster under PAXOS is its own 2F+1 = 2 acceptor
    ensemble (one acceptor co-hosted per daemon, quorum of 2), so the
    1a/2a traffic crosses real sockets to *both* daemons.
    """

    def test_paxos_commits_over_sockets(self, tmp_path):
        outcomes, statuses = asyncio.run(run_cluster(
            tmp_path, [transfer_spec()], scheme=CommitScheme.PAXOS,
        ))
        assert outcomes[0].committed
        for status in statuses:
            assert status["subtxns"]["T1"]["voted"] == "YES"

    def test_paxos_no_vote_aborts_without_compensation(self, tmp_path):
        outcomes, _ = asyncio.run(run_cluster(
            tmp_path, [transfer_spec(vote=VotePolicy.FORCE_NO)],
            scheme=CommitScheme.PAXOS,
        ))
        outcome = outcomes[0]
        assert not outcome.committed
        assert outcome.compensated_sites == ()

    def test_paxos_acceptor_state_is_persisted(self, tmp_path):
        asyncio.run(run_cluster(
            tmp_path, [transfer_spec()], scheme=CommitScheme.PAXOS,
        ))
        # Each daemon's co-hosted acceptor logged to the site's own WAL,
        # keyed by the acceptor's id, not the transaction's.
        for site_id, acc in (("S1", "acc.1"), ("S2", "acc.2")):
            wal = WriteAheadLog(site_id, path=str(tmp_path / f"{site_id}.wal"))
            records = [
                r for r in wal if r.record_type is RecordType.ACCEPTOR
            ]
            wal.close()
            assert {r.txn_id for r in records} == {acc}
            assert "T1" in {r.payload["txn"] for r in records}
        # Observability is off: the data dir holds the sites' WALs and
        # nothing else (the coordinators log to their sites' WALs).
        assert not list(tmp_path.glob("acc.*.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "S1.wal", "S2.wal",
        ]

    def test_short_commits_over_sockets(self, tmp_path):
        outcomes, _ = asyncio.run(run_cluster(
            tmp_path, [transfer_spec()], scheme=CommitScheme.SHORT,
        ))
        assert outcomes[0].committed

    def test_short_no_vote_aborts_without_compensation(self, tmp_path):
        outcomes, _ = asyncio.run(run_cluster(
            tmp_path, [transfer_spec(vote=VotePolicy.FORCE_NO)],
            scheme=CommitScheme.SHORT,
        ))
        outcome = outcomes[0]
        assert not outcome.committed
        assert outcome.compensated_sites == ()


class TestSubmissions:
    """What a daemon refuses to coordinate, and how."""

    @staticmethod
    async def submit_raw(cluster, site_id, body):
        from repro.rt.wire import read_frame, write_frame

        reader, writer = await asyncio.open_connection(
            *cluster.site(site_id).address
        )
        try:
            await write_frame(writer, body)
            return await read_frame(reader)
        finally:
            writer.close()

    def run(self, tmp_path, scenario):
        async def main():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemons = [
                SiteDaemon(s, cluster, time_scale=0.002)
                for s in cluster.site_ids
            ]
            for daemon in daemons:
                await daemon.start()
            try:
                return await scenario(cluster, daemons)
            finally:
                for daemon in daemons:
                    await daemon.shutdown()

        return asyncio.run(main())

    def test_a_client_expecting_another_scheme_is_refused(self, tmp_path):
        from repro.errors import CommitProtocolError

        async def scenario(cluster, daemons):
            client = NetClient(
                cluster, scheme=CommitScheme.TWO_PL, time_scale=0.002,
            )
            with pytest.raises(CommitProtocolError, match="S1 runs O2PC"):
                await client.run_session([transfer_spec()])
            return daemons[0].status()

        status = self.run(tmp_path, scenario)
        assert status["subtxns"] == {} and status["coordinators"] == 0

    def test_only_the_first_site_coordinates(self, tmp_path):
        from repro.rt.wire import spec_to_json

        async def scenario(cluster, daemons):
            return await self.submit_raw(cluster, "S2", {
                "kind": "submit", "spec": spec_to_json(transfer_spec()),
                "commit": {},
            })

        told = self.run(tmp_path, scenario)
        assert told == {
            "kind": "told", "txn": "T1", "error": "submit to the first site",
        }

    def test_a_malformed_submission_closes_only_its_connection(
        self, tmp_path,
    ):
        async def scenario(cluster, daemons):
            refused = await self.submit_raw(cluster, "S1", {
                "kind": "submit", "spec": {"txn": "T1", "subtxns": [{}]},
            })
            outcomes = await NetClient(
                cluster, time_scale=0.002,
            ).run_session([transfer_spec()])
            return refused, outcomes, daemons[0].status()

        refused, outcomes, status = self.run(tmp_path, scenario)
        assert refused is None  # hung up on, no reply
        assert status["frames_refused"] == 1
        assert outcomes[0].committed  # and serving goes on


class TestFailStop:
    def test_a_pump_that_raises_hangs_up_and_shutdown_reraises(
        self, tmp_path,
    ):
        # The group-commit barrier fails (a disk that refuses fsync): the
        # pump task dies in its first flush.  The daemon stops answering
        # by closing every connection and its listener, so the caller
        # loses it and gives up in bounded time instead of waiting on a
        # daemon that listens and answers nothing.
        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemon = SiteDaemon("S1", cluster, time_scale=0.002)
            await daemon.start()

            async def failing_gate():
                raise OSError("fsync refused")

            daemon.transport.durability_gate = failing_gate
            client = NetClient(cluster, time_scale=0.0005)
            with pytest.raises(TimeoutError, match="did not come back"):
                await asyncio.wait_for(client.submit(transfer_spec()), 10)
            client.transport.close()
            with pytest.raises(OSError, match="fsync refused"):
                await daemon.shutdown()
            return daemon

        daemon = asyncio.run(scenario())
        assert daemon.transport._live == set()
        assert daemon.transport._server is None
