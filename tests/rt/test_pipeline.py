"""Pipelined sessions over real sockets.

``NetClient.run_pipelined`` keeps a bounded window of submissions in
flight; each transaction's unmodified Coordinator runs in the daemon of
its first site, many at once on that daemon's pump.  The contracts pinned
here: pipelining changes *scheduling only* — every transaction commits
with the same per-transaction coordinator trace a serial run produces;
money is conserved under concurrent cross-site transfers; the daemon-side
cost model actually changes (one fsync covers many force points once
transactions overlap); and a daemon's return-route table stays bounded by
the coordinators it is still talking to.
"""

import asyncio

from repro.obs.events import EventLog, VoteRecorded
from repro.rt.client import NetClient
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec

N_SITES = 3
KEYS = 5
INITIAL = 100


def transfer_specs(site_ids, n):
    """Deterministic cross-site transfers contending on a few hot keys."""
    specs = []
    for i in range(n):
        src = site_ids[i % len(site_ids)]
        dst = site_ids[(i + 1) % len(site_ids)]
        key = f"k{i % KEYS}"
        specs.append(GlobalTxnSpec(txn_id=f"P{i}", subtxns=[
            SubtxnSpec(src, [SemanticOp("withdraw", key, {"amount": 2})]),
            SubtxnSpec(dst, [SemanticOp("deposit", key, {"amount": 2})]),
        ]))
    return specs


async def run_cluster(tmp_path, specs, sessions, observe=True):
    """In-process daemons + one client on a single event loop."""
    cluster = local_cluster(
        [f"S{i}" for i in range(1, N_SITES + 1)], data_dir=str(tmp_path),
    )
    daemons = [
        SiteDaemon(site_id, cluster, time_scale=0.002, keys_per_site=KEYS)
        for site_id in cluster.site_ids
    ]
    for daemon in daemons:
        await daemon.start()
    client = NetClient(cluster, time_scale=0.002)
    logs = {}
    for daemon in daemons:
        logs[daemon.site_id] = EventLog()
        if observe:
            daemon.env.bus.subscribe(logs[daemon.site_id])
            daemon.env.bus.enable()
    try:
        if sessions == 1:
            outcomes = await client.run_session(specs)
        else:
            outcomes = await client.run_pipelined(specs, sessions=sessions)
        wal_stats = {
            d.site_id: (d.site.wal.forced_writes, d.site.wal.fsyncs)
            for d in daemons
        }
        balances = {
            d.site_id: sum(d.site.store.snapshot().values())
            for d in daemons
        }
        groups = sum(d.flusher.groups for d in daemons)
        covered = sum(d.flusher.forces_covered for d in daemons)
        routes = {d.site_id: len(d.transport._routes) for d in daemons}
        return outcomes, client, logs, wal_stats, balances, (
            groups, covered,
        ), routes
    finally:
        for daemon in daemons:
            await daemon.shutdown()


def txn_trace(logs, spec):
    """One transaction's coordinator trace, normalized for vote order.

    The coordinator's own events and its messages, as its daemon (the
    first site's) recorded them.  Votes from different sites race over
    independent sockets in *any* run, serial included, so the vote set is
    compared unordered; every other event keeps its sequence.
    """
    txn_id, coord = spec.txn_id, f"coord.{spec.txn_id}"
    events = logs[spec.subtxns[0].site_id].events
    phases = [
        e.kind for e in events
        if getattr(e, "txn_id", None) == txn_id
        and not isinstance(e, VoteRecorded)
        and (e.kind.startswith("txn.") or coord in (
            getattr(e, "sender", None), getattr(e, "recipient", None),
        ))
    ]
    votes = sorted(
        (e.site_id, e.vote) for e in events
        if isinstance(e, VoteRecorded) and e.txn_id == txn_id
    )
    return phases, votes


class TestPipelinedSessions:
    def test_pipelined_transfers_commit_and_conserve_balance(self, tmp_path):
        specs = transfer_specs([f"S{i}" for i in range(1, N_SITES + 1)], 30)
        outcomes, client, _, _, balances, _, _ = asyncio.run(
            run_cluster(tmp_path, specs, sessions=8)
        )
        assert len(outcomes) == 30
        assert all(o.committed for o in outcomes)
        # transfers only move value between sites: the cluster-wide sum
        # is exactly the preloaded total
        assert sum(balances.values()) == N_SITES * KEYS * INITIAL
        assert client.pending_decisions == {}

    def test_outcomes_return_in_spec_order(self, tmp_path):
        specs = transfer_specs([f"S{i}" for i in range(1, N_SITES + 1)], 12)
        outcomes, client, _, _, _, _, _ = asyncio.run(
            run_cluster(tmp_path, specs, sessions=6)
        )
        assert [o.txn_id for o in outcomes] == [s.txn_id for s in specs]
        assert len(client.latencies) == 12

    def test_window_bounds_concurrency(self, tmp_path):
        # sessions=1 through the pipelined path degenerates to serial —
        # same outcomes, no interleaving to go wrong.
        specs = transfer_specs([f"S{i}" for i in range(1, N_SITES + 1)], 6)
        outcomes, _, _, _, _, _, _ = asyncio.run(
            run_cluster(tmp_path, specs, sessions=1)
        )
        assert all(o.committed for o in outcomes)

    def test_group_commit_coalesces_fsyncs_under_pipelining(self, tmp_path):
        specs = transfer_specs([f"S{i}" for i in range(1, N_SITES + 1)], 30)
        _, _, _, wal_stats, _, (groups, covered), _ = asyncio.run(
            run_cluster(tmp_path, specs, sessions=8)
        )
        forced = sum(f for f, _ in wal_stats.values())
        fsyncs = sum(s for _, s in wal_stats.values())
        # every force point was covered by *some* fsync, but concurrent
        # sessions share them: strictly fewer fsyncs than force points
        assert forced > 0
        assert fsyncs < forced
        assert groups > 0
        assert covered >= groups

    def test_pipelined_traces_match_serial_traces(self, tmp_path):
        site_ids = [f"S{i}" for i in range(1, N_SITES + 1)]
        specs = transfer_specs(site_ids, 16)
        _, _, serial_events, _, _, _, _ = asyncio.run(
            run_cluster(tmp_path / "serial", specs, sessions=1)
        )
        _, _, piped_events, _, _, _, _ = asyncio.run(
            run_cluster(tmp_path / "piped", specs, sessions=8)
        )
        for spec in specs:
            serial_trace = txn_trace(serial_events, spec)
            piped_trace = txn_trace(piped_events, spec)
            assert piped_trace == serial_trace, spec.txn_id
            # and the trace is the full happy path, not a vacuous match
            phases, votes = serial_trace
            assert "txn.submit" in phases
            assert "txn.end" in phases
            assert len(votes) == 2

    def test_return_routes_stay_bounded_by_live_coordinators(self, tmp_path):
        # A route to another daemon's coordinator is learned from its
        # first frame and forgotten with the ACK that ends the exchange:
        # after a thousand transfers nothing is live, and nothing is left.
        specs = [
            # lower site first: the hot keys queue but never deadlock
            GlobalTxnSpec(txn_id=spec.txn_id, subtxns=sorted(
                spec.subtxns, key=lambda sub: sub.site_id,
            ))
            for spec in transfer_specs(
                [f"S{i}" for i in range(1, N_SITES + 1)], 1000,
            )
        ]
        outcomes, _, _, _, balances, _, routes = asyncio.run(
            run_cluster(tmp_path, specs, sessions=16, observe=False)
        )
        assert all(o.committed for o in outcomes)
        assert sum(balances.values()) == N_SITES * KEYS * INITIAL
        assert routes == {f"S{i}": 0 for i in range(1, N_SITES + 1)}
