"""Kill -9 the daemon that coordinates a transaction, at three points.

The coordinator of a transaction runs in the daemon of its first site, so
a SIGKILL of that daemon kills the coordinator with it.  Each test lands
the kill between two specific steps (``crashing_serve.py`` hooks the
daemon process) and checks what the paper's recovery story promises:

* after ``DECIDE`` is on disk, before any DECISION left: the restart
  re-sends the decision and the remote site commits;
* after the remote site locally committed, before ``DECIDE``: the restart
  presumes abort, both sites compensate, the balance is conserved;
* after the remote site executed, before VOTE_REQ: the remote site
  unilaterally aborts when the coordinator's connection drops, and its
  locks are free again without either daemon restarting.

In every case the caller, whose connection died with the daemon, asks the
restarted daemon and hears the truth: committed only if a
``DECIDE(COMMIT)`` survived.
"""

import asyncio
import os
import time

from repro.harness.system import SystemConfig
from repro.rt.client import NetClient, site_read, site_status
from repro.rt.system import NetSystem
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec

CRASHING = os.path.join(os.path.dirname(__file__), "crashing_serve.py")


def transfer(txn_id, src, dst, amount=30):
    return GlobalTxnSpec(txn_id=txn_id, subtxns=[
        SubtxnSpec(src, [SemanticOp("withdraw", "k0", {"amount": amount})]),
        SubtxnSpec(dst, [SemanticOp("deposit", "k0", {"amount": amount})]),
    ])


class CrashingSystem(NetSystem):
    """S1 runs under ``crashing_serve.py POINT`` until :attr:`point` is
    cleared; every restart after that is a plain ``repro serve``."""

    def __init__(self, config, point):
        super().__init__(config)
        self.point = point

    def serve_argv(self, site_id):
        argv = super().serve_argv(site_id)
        if site_id == "S1" and self.point is not None:
            argv[1:3] = [CRASHING, self.point]
        return argv


def in_thread(fn, *args):
    return asyncio.get_running_loop().run_in_executor(None, fn, *args)


async def until(predicate, deadline=20.0):
    end = time.monotonic() + deadline
    while True:
        value = await in_thread(predicate)
        if value:
            return value
        assert time.monotonic() < end, "condition not met in time"
        await asyncio.sleep(0.05)


def subtxn(system, site_id, txn_id):
    try:
        status = site_status(system.cluster, site_id)
    except OSError:
        return None
    return (status or {}).get("subtxns", {}).get(txn_id)


async def kill_then(system, after_kill=None):
    """Submit T1 (S1 -> S2); once S1 has killed itself run ``after_kill``,
    then restart S1 and return what the caller was told."""
    told = asyncio.ensure_future(
        system.client.run_session([transfer("T1", "S1", "S2")])
    )
    await until(lambda: system.procs["S1"].poll() is not None)
    seen = None if after_kill is None else await after_kill()
    system.point = None
    system.start_site("S1")
    (outcome,) = await told
    return outcome, seen


def config(n_sites=2):
    return SystemConfig(n_sites=n_sites, keys_per_site=2, backend="net")


def balance(system):
    return {
        site_id: site_read(system.cluster, site_id, "k0")
        for site_id in system.cluster.site_ids
    }


class TestCoordinatorCrash:
    def test_a_decide_on_disk_is_resent_after_the_kill(self):
        with CrashingSystem(config(), "after-decide") as system:
            outcome, _ = asyncio.run(kill_then(system))
            # The DECIDE(COMMIT) was fsynced before the kill: committed.
            assert outcome.committed
            # The restarted S1 re-sent the decision; the session's drain
            # waited for its round, so S2 has it now.
            assert subtxn(system, "S2", "T1")["decided"] == "COMMIT"
            assert system.client.pending_decisions == {}
            assert balance(system) == {"S1": 70, "S2": 130}

    def test_no_decide_is_presumed_abort_and_both_sites_compensate(self):
        with CrashingSystem(config(), "remote-vote") as system:
            outcome, _ = asyncio.run(kill_then(system))
            assert not outcome.committed
            # Both sites had locally committed (O2PC): the restart's
            # DECIDE(ABORT) ran compensation at each.
            for site_id in ("S1", "S2"):
                assert subtxn(system, site_id, "T1")["decided"] == "ABORT"
            assert system.client.pending_decisions == {}
            assert balance(system) == {"S1": 100, "S2": 100}

    def test_a_lost_coordinator_frees_an_unvoted_remote_subtransaction(self):
        with CrashingSystem(config(n_sites=3), "remote-executed") as system:
            async def while_s1_is_down():
                # S2 executed T1 (k0 is X-locked) and never got a
                # VOTE_REQ; the dropped connection unilaterally aborts it.
                await until(lambda: subtxn(system, "S2", "T1") == {
                    "executed": False, "voted": None, "decided": None,
                })
                # Its lock is free: T2 takes k0 at S2 and commits, with
                # neither S2 nor S1 restarted.
                other = NetClient(system.cluster)
                return await in_thread(
                    other.run_transaction, transfer("T2", "S2", "S3", 10),
                )

            outcome, t2 = asyncio.run(kill_then(system, while_s1_is_down))
            assert not outcome.committed
            assert t2.committed
            assert balance(system) == {"S1": 100, "S2": 90, "S3": 110}
