"""A daemon's state is bounded: fuzzy checkpoints on the net backend.

Two equal waves of pipelined transfers through two in-process daemons.
The WAL file keeps every record (``wal_records`` counts appends), but
the records a daemon retains in memory do not grow with the waves, and
what a checkpoint settled is still answered: its outcome (the admin
``outcome`` query) and its id (a reuse is refused after a restart).
"""

import asyncio

from repro.rt.client import NetClient
from repro.rt.config import local_cluster
from repro.rt.daemon import SiteDaemon
from repro.txn.operations import SemanticOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec

#: transfers per wave, and the sessions that run them
WAVE = 100
SESSIONS = 8


def transfer(txn_id, sites=("S1", "S2"), amount=1):
    first, *rest = sites
    return GlobalTxnSpec(txn_id, [
        SubtxnSpec(first, [SemanticOp("withdraw", "k0", {"amount": amount})]),
        *(SubtxnSpec(site, [SemanticOp("deposit", "k0", {"amount": amount})])
          for site in rest),
    ])


async def start(cluster, site_id):
    daemon = SiteDaemon(site_id, cluster, time_scale=0.002)
    await daemon.start()
    return daemon


def test_retained_records_stay_flat_across_two_waves(tmp_path):
    async def scenario():
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        daemons = [await start(cluster, s) for s in cluster.site_ids]
        try:
            statuses = []
            for wave in ("A", "B"):
                await NetClient(cluster, time_scale=0.002).run_pipelined(
                    [transfer(f"{wave}{n}") for n in range(WAVE)],
                    sessions=SESSIONS,
                )
                statuses.append([d.status() for d in daemons])
            told = await NetClient(cluster, time_scale=0.002)._ask(
                "S1", "A0",
            )
            return statuses, told
        finally:
            for daemon in daemons:
                await daemon.shutdown()

    (first, second), told = asyncio.run(scenario())
    for a, b in zip(first, second):
        appended = b["wal_records"] - a["wal_records"]
        assert appended > WAVE  # the file keeps counting every append
        assert 0 < a["checkpoints"] < b["checkpoints"]
        assert a["settled_ids"] < b["settled_ids"]
        assert b["wal_low_water"] > a["wal_records"] // 2
        # Retained records: flat, not one wave's worth more.
        for status in (a, b):
            assert status["wal_retained"] < appended / 2
        assert "A0" not in b["subtxns"]
    # A checkpoint settled A0 at S1, and its outcome is still told.
    assert told["outcome"]["committed"]


def test_a_reused_id_is_refused_after_a_daemon_restart(tmp_path):
    async def scenario():
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        daemons = {s: await start(cluster, s) for s in cluster.site_ids}
        try:
            first = await NetClient(cluster, time_scale=0.002).run_session(
                [transfer("T1")],
            )
            await daemons["S2"].shutdown()
            daemons["S2"] = await start(cluster, "S2")
            reuse = await NetClient(cluster, time_scale=0.002).run_session(
                [transfer("T1", sites=("S2",))],
            )
            return first + reuse, daemons["S2"].status()
        finally:
            for daemon in daemons.values():
                await daemon.shutdown()

    (first, reuse), status = asyncio.run(scenario())
    assert first.committed
    assert status["fresh_boot"] is False
    assert not reuse.committed and reuse.rejections == 1
    assert status["reused_ids_refused"] == 1


def test_retained_history_and_audit_stay_flat_across_three_waves(tmp_path):
    """The forgetting judge on a daemon: its site's history operations
    and marking-audit transitions do not grow with the waves."""
    async def scenario():
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        daemons = [await start(cluster, s) for s in cluster.site_ids]
        try:
            statuses = []
            for wave in ("A", "B", "C"):
                await NetClient(cluster, time_scale=0.002).run_pipelined(
                    [transfer(f"{wave}{n}") for n in range(WAVE)],
                    sessions=SESSIONS,
                )
                statuses.append([d.status() for d in daemons])
            return statuses, [d.judge.forgotten for d in daemons]
        finally:
            for daemon in daemons:
                await daemon.shutdown()

    statuses, forgotten = asyncio.run(scenario())
    for site in range(2):
        ops = [wave[site]["history_ops"] for wave in statuses]
        audit = [wave[site]["audit_entries"] for wave in statuses]
        # a wave records WAVE operations here and fires 2 * WAVE
        # transitions (vote, then decision)
        assert max(ops) < WAVE // 2, ops
        assert max(audit) < WAVE, audit
        assert forgotten[site] > 2 * WAVE
        # Still one lock-hold record per interval and one wait per grant,
        # for good: these grow with uptime until the logs become
        # histograms (ROADMAP item 16).
        for name in ("lock_holds", "lock_waits"):
            counts = [0] + [wave[site][name] for wave in statuses]
            growth = [b - a for a, b in zip(counts, counts[1:])]
            assert min(growth) >= WAVE, (name, counts)
