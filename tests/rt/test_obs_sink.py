"""Per-site JSONL event sinks and the cluster-wide aggregation fold.

The sink is the daemon half of live observability (``repro serve
--obs``); :func:`aggregate_cluster` is the collector half (``repro
metrics --cluster``).  The contract worth pinning: events round-trip
through JSONL losslessly (including tuple fields and bus stamps), sinks
append across restarts, and the aggregator derives commit/abort counts
from each transaction's one ``txn.end`` (published by its coordinator,
in its first site's stream) — however many sites applied the decision.
"""

import asyncio

import json

from repro.obs.events import (
    DecisionApplied,
    EventBus,
    LockGranted,
    LockReleased,
    SiteRecovered,
    TxnTerminated,
)
from repro.obs.export import event_from_dict, event_to_dict
from repro.rt.config import ClusterConfig, SiteSpec
from repro.rt.obs_sink import JsonlEventSink, aggregate_cluster, read_events


def stamped(bus, event):
    return bus.publish(event)


def make_bus():
    bus = EventBus()
    bus.enable()
    return bus


class TestRoundTrip:
    def test_tuple_fields_and_stamps_survive(self):
        bus = make_bus()
        event = stamped(bus, SiteRecovered(
            site_id="S1", in_doubt=("T1", "T2"), locally_committed=("T3",),
        ))
        back = event_from_dict(event_to_dict(event))
        assert back == event
        assert back.in_doubt == ("T1", "T2")
        assert back.ts == event.ts
        assert back.seq == event.seq

    def test_every_published_kind_reconstructs(self):
        bus = make_bus()
        events = [
            stamped(bus, DecisionApplied(
                txn_id="T1", site_id="S1", decision="COMMIT",
                compensated=False,
            )),
            stamped(bus, TxnTerminated(
                txn_id="T1", committed=True, latency=3.5,
                compensated_sites=(),
            )),
            stamped(bus, LockGranted(
                site_id="S1", txn_id="T1", key="k0", mode="X",
                waited=0.0,
            )),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event


class TestSink:
    def test_sink_writes_readable_jsonl(self, tmp_path):
        path = str(tmp_path / "S1.events.jsonl")
        bus = make_bus()
        sink = JsonlEventSink(path, flush_every=2)
        bus.subscribe(sink)
        stamped(bus, DecisionApplied(
            txn_id="T1", site_id="S1", decision="COMMIT", compensated=False,
        ))
        stamped(bus, DecisionApplied(
            txn_id="T2", site_id="S1", decision="ABORT", compensated=True,
        ))
        sink.close()
        events = read_events(path)
        assert [e.txn_id for e in events] == ["T1", "T2"]
        assert sink.events_written == 2

    def test_sink_appends_across_restarts(self, tmp_path):
        path = str(tmp_path / "S1.events.jsonl")
        for txn in ("T1", "T2"):
            bus = make_bus()
            sink = JsonlEventSink(path)
            bus.subscribe(sink)
            stamped(bus, DecisionApplied(
                txn_id=txn, site_id="S1", decision="COMMIT",
                compensated=False,
            ))
            sink.close()
        assert [e.txn_id for e in read_events(path)] == ["T1", "T2"]

    def test_lines_are_compact_sorted_json(self, tmp_path):
        path = str(tmp_path / "S1.events.jsonl")
        bus = make_bus()
        sink = JsonlEventSink(path)
        bus.subscribe(sink)
        stamped(bus, DecisionApplied(
            txn_id="T1", site_id="S1", decision="COMMIT", compensated=False,
        ))
        sink.close()
        with open(path, encoding="utf-8") as handle:
            line = handle.readline().rstrip("\n")
        parsed = json.loads(line)
        assert line == json.dumps(
            parsed, sort_keys=True, separators=(",", ":"),
        )


class TestAggregateCluster:
    def cluster(self, tmp_path, sites=("S1", "S2")):
        return ClusterConfig(
            sites={s: SiteSpec(site_id=s, port=1) for s in sites},
            data_dir=str(tmp_path),
        )

    def write_stream(self, cluster, site_id, events):
        bus = make_bus()
        sink = JsonlEventSink(cluster.events_path(site_id))
        bus.subscribe(sink)
        for event in events:
            stamped(bus, event)
        sink.close()

    def test_decisions_count_once_per_transaction(self, tmp_path):
        cluster = self.cluster(tmp_path)
        # Both sites apply T1's COMMIT; only S1 records T2's ABORT; S1
        # coordinated both, so its stream holds their txn.end events.
        self.write_stream(cluster, "S1", [
            DecisionApplied(txn_id="T1", site_id="S1", decision="COMMIT",
                            compensated=False),
            TxnTerminated(txn_id="T1", committed=True, latency=3.0,
                          compensated_sites=()),
            DecisionApplied(txn_id="T2", site_id="S1", decision="ABORT",
                            compensated=True),
            TxnTerminated(txn_id="T2", committed=False, latency=4.0,
                          compensated_sites=("S1",)),
        ])
        self.write_stream(cluster, "S2", [
            DecisionApplied(txn_id="T1", site_id="S2", decision="COMMIT",
                            compensated=False),
        ])
        report, per_site = aggregate_cluster(cluster)
        assert report.committed == 1
        assert report.aborted == 1
        assert per_site == {"S1": 4, "S2": 1}

    def test_missing_streams_count_zero(self, tmp_path):
        cluster = self.cluster(tmp_path)
        report, per_site = aggregate_cluster(cluster)
        assert per_site == {"S1": 0, "S2": 0}
        assert report.committed == 0

    def test_lock_events_feed_the_metrics_fold(self, tmp_path):
        cluster = self.cluster(tmp_path, sites=("S1",))
        self.write_stream(cluster, "S1", [
            LockGranted(site_id="S1", txn_id="T1", key="k0", mode="X",
                        waited=0.5),
            LockReleased(site_id="S1", txn_id="T1", key="k0", mode="X",
                         held=2.0),
        ])
        report, _ = aggregate_cluster(cluster)
        assert report.mean_lock_hold == 2.0
        assert report.mean_lock_wait == 0.5


class TestLiveCluster:
    def test_folded_outcomes_equal_the_clients(self, tmp_path):
        # A pipelined run over daemons with their sinks on: the fold of
        # the streams counts what the client was told, no more, no less.
        from repro.commit.base import CommitConfig
        from repro.rt.client import NetClient
        from repro.rt.config import local_cluster
        from repro.rt.daemon import SiteDaemon
        from repro.txn.transaction import VotePolicy

        from tests.rt.test_daemon import transfer_spec

        async def scenario():
            cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
            daemons = [
                SiteDaemon(s, cluster, time_scale=0.002,
                           obs_path=cluster.events_path(s))
                for s in cluster.site_ids
            ]
            for daemon in daemons:
                await daemon.start()
            client = NetClient(
                cluster, commit=CommitConfig(), time_scale=0.002,
            )
            specs = [
                transfer_spec(f"T{i}", amount=1, vote=(
                    VotePolicy.FORCE_NO if i % 4 == 0 else VotePolicy.AUTO
                ))
                for i in range(12)
            ]
            try:
                outcomes = await client.run_pipelined(specs, sessions=4)
            finally:
                for daemon in daemons:
                    await daemon.shutdown()
            return cluster, outcomes

        cluster, outcomes = asyncio.run(scenario())
        report, _ = aggregate_cluster(cluster)
        committed = sum(1 for o in outcomes if o.committed)
        assert (report.committed, report.aborted) == (
            committed, len(outcomes) - committed,
        )
        assert committed == 9
