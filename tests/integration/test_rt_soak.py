"""Chaos soak: pipelined transfers while daemons are SIGKILLed at random.

Waves of concurrent cross-site transfers run against a live cluster;
during each wave one randomly chosen daemon is ``kill -9``-ed and
restarted mid-pipeline, killing the coordinators it hosts with it.
Transactions racing the crash abort on timeout, are presumed aborted by
the restarted daemon, or land in ``pending_decisions``; the coordinating
daemons' decision retransmission then finalizes every survivor, and a
caller whose daemon died asks the restarted one what became of its
transaction.  The invariants at the end are the paper's whole
durability story in one assertion each:

* **balance conservation** — transfers only move value, so however many
  transactions committed, aborted, or were compensated, the cluster-wide
  sum equals the preloaded total;
* **no in-doubt leftovers** — after retransmission and a clean restart,
  no site still holds an undecided transaction (nothing blocks, nothing
  waits for compensation).

Sized for tier-1 by default; CI scales it up via ``REPRO_SOAK_ROUNDS``
and ``REPRO_SOAK_TRANSFERS`` (transfers per round).
"""

import asyncio
import os
import random
import time

from repro.commit.base import CommitConfig, CommitScheme
from repro.harness.system import SystemConfig
from repro.rt.client import NetClient, site_read
from repro.rt.system import NetSystem, wait_for_port
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec

ROUNDS = int(os.environ.get("REPRO_SOAK_ROUNDS", "2"))
TRANSFERS = int(os.environ.get("REPRO_SOAK_TRANSFERS", "40"))
SESSIONS = 8
KEYS = 20
INITIAL = 100
TIME_SCALE = 0.002


def transfer_specs(site_ids, n, rnd, round_no):
    specs = []
    for i in range(n):
        src, dst = rnd.sample(site_ids, 2)
        key = f"k{rnd.randrange(KEYS)}"
        amount = rnd.randint(1, 5)
        specs.append(GlobalTxnSpec(txn_id=f"soak{round_no}.{i}", subtxns=[
            SubtxnSpec(src, [SemanticOp("withdraw", key,
                                        {"amount": amount})]),
            SubtxnSpec(dst, [SemanticOp("deposit", key,
                                        {"amount": amount})]),
        ]))
    return specs


def make_client(system):
    # Short timeouts so transactions racing a dead daemon abort in real
    # milliseconds instead of the default 200 sim units.
    return NetClient(
        system.cluster, scheme=CommitScheme.O2PC,
        commit=CommitConfig(vote_timeout=100, ack_timeout=100,
                            decision_retries=1),
        time_scale=TIME_SCALE,
    )


async def kill_and_restart(system, site_id):
    """SIGKILL one daemon mid-pipeline, then bring it back."""
    await asyncio.sleep(0.05)  # let the wave get in flight
    system.kill_site(site_id)
    await asyncio.sleep(0.1)  # transactions time out against the corpse
    system.start_site(site_id)
    spec = system.cluster.site(site_id)
    await asyncio.get_running_loop().run_in_executor(
        None, wait_for_port, spec.host, spec.port,
    )


def run_wave(system, client, specs, victim):
    async def scenario():
        chaos = asyncio.ensure_future(kill_and_restart(system, victim))
        try:
            return await client.run_pipelined(specs, sessions=SESSIONS)
        finally:
            await chaos

    return asyncio.run(scenario())


def drain_pending(client, attempts=5):
    """Retransmit decisions until every site has acknowledged."""
    for _ in range(attempts):
        if not client.pending_decisions:
            return
        client.resend_pending()
    assert not client.pending_decisions, (
        f"undeliverable decisions: {client.pending_decisions}"
    )


def wait_recovered(system, site_id, deadline=10.0):
    end = time.monotonic() + deadline
    while True:
        try:
            status = system.site_status(site_id)
        except OSError:
            status = None
        if status is not None and status.get("recovered") is not None:
            return status
        if time.monotonic() >= end:
            raise TimeoutError(f"{site_id} never finished recovery")
        time.sleep(0.05)


class TestSoak:
    def test_chaos_waves_conserve_balance_and_leave_nothing_in_doubt(
        self, tmp_path,
    ):
        rnd = random.Random(42)
        config = SystemConfig(
            n_sites=3, scheme=CommitScheme.O2PC, protocol="none",
            keys_per_site=KEYS, backend="net", time_scale=TIME_SCALE,
        )
        with NetSystem(config) as system:
            site_ids = system.cluster.site_ids
            committed = aborted = 0
            for round_no in range(ROUNDS):
                client = make_client(system)
                specs = transfer_specs(
                    site_ids, TRANSFERS, rnd, round_no,
                )
                victim = rnd.choice(site_ids)
                outcomes = run_wave(system, client, specs, victim)
                committed += sum(1 for o in outcomes if o.committed)
                aborted += sum(1 for o in outcomes if not o.committed)
                wait_recovered(system, victim)
                drain_pending(client)

            # the chaos actually exercised both paths in aggregate
            assert committed > 0
            assert committed + aborted == ROUNDS * TRANSFERS

            # clean restart of every daemon: recovery must classify
            # nothing as still undecided
            for site_id in site_ids:
                proc = system.procs[site_id]
                from repro.rt.client import site_shutdown
                site_shutdown(system.cluster, site_id)
                proc.wait(timeout=10)
                system.start_site(site_id)
                spec = system.cluster.site(site_id)
                wait_for_port(spec.host, spec.port)
                status = wait_recovered(system, site_id)
                assert status["fresh_boot"] is False
                assert status["recovered"]["in_doubt"] == []
                assert status["recovered"]["locally_committed"] == []

            # balance conservation across every committed, aborted, and
            # compensated transfer
            total = sum(
                site_read(system.cluster, site_id, f"k{i}")
                for site_id in site_ids
                for i in range(KEYS)
            )
            assert total == len(site_ids) * KEYS * INITIAL
