"""Kill -9 a real participant daemon mid-2PC and recover it from its WAL.

The acceptance scenario for the networked runtime: a ``repro serve``
daemon is SIGKILLed **between its VOTE-COMMIT and the coordinator's
decision** — the exact window where O2PC has already locally committed
(updates exposed, locks released, LOCAL-COMMIT force-logged) while the
global outcome is still open.  On restart the daemon's WAL recovery must
re-derive the *locally committed* classification (the sim restart
oracle's second bucket), re-expose the updates, and — when the decision
turns out to be ABORT — run the compensating subtransaction.

The test speaks the wire protocol itself (it *is* the coordinator), so
the kill lands deterministically between two specific frames rather than
at a scheduler's whim.  The 2PL variant pins the other bucket: a
prepared participant restarts *in doubt*, holding its write locks until
the decision arrives.  The decision-retransmission tests put the decision
where a daemon-hosted coordinator keeps it — a ``DECIDE`` record in its
site's WAL — and check that the restarted daemon delivers it.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.net.message import Message, MsgType
from repro.rt.client import NetClient, site_read, site_shutdown, site_status
from repro.rt.config import local_cluster
from repro.rt.system import wait_for_port
from repro.rt.wire import message_from_json, message_to_json, read_frame, \
    write_frame
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn.operations import SemanticOp

COORD = "coord.T1"
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def spawn_daemon(cluster_file, site_id="S1", scheme="O2PC"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", site_id,
         "--cluster", cluster_file, "--scheme", scheme],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )


def wait_until(predicate, deadline=10.0, interval=0.05):
    end = time.monotonic() + deadline
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= end:
            raise TimeoutError("condition not met in time")
        time.sleep(interval)


def daemon_ready(cluster, site_id="S1", recovered=False):
    """Block until the daemon answers status (and finished recovery)."""
    spec = cluster.site(site_id)
    wait_for_port(spec.host, spec.port)

    def check():
        status = site_status(cluster, site_id)
        if status is None:
            return None
        if recovered and status.get("recovered") is None:
            return None
        if not recovered and status.get("keys", 0) == 0:
            return None
        return status

    return wait_until(check)


class WireCoordinator:
    """A hand-rolled coordinator: one TCP connection, explicit frames."""

    def __init__(self, cluster, site_id="S1"):
        self.address = cluster.site(site_id).address
        self.site_id = site_id

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            *self.address
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()

    async def call(self, msg_type, payload, reply_type):
        message = Message(
            msg_type=msg_type, sender=COORD, recipient=self.site_id,
            txn_id="T1", payload=payload,
        )
        await write_frame(self.writer, message_to_json(message))
        frame = await asyncio.wait_for(read_frame(self.reader), timeout=10)
        assert frame is not None, "daemon hung up mid-protocol"
        reply = message_from_json(frame)
        assert reply.msg_type is reply_type
        return reply


def run_round(cluster, msg_type, payload, reply_type):
    async def scenario():
        async with WireCoordinator(cluster) as coord:
            return await coord.call(msg_type, payload, reply_type)

    return asyncio.run(scenario())


def execute_and_vote(cluster):
    """Drive T1 up to (and including) the participant's YES vote."""
    async def scenario():
        async with WireCoordinator(cluster) as coord:
            ack = await coord.call(
                MsgType.SUBTXN_REQ,
                {"ops": [SemanticOp("withdraw", "k0", {"amount": 30})],
                 "transmarks": []},
                MsgType.SUBTXN_ACK,
            )
            assert ack.payload["executed"] is True
            vote = await coord.call(
                MsgType.VOTE_REQ, {"transmarks": []}, MsgType.VOTE,
            )
            assert vote.payload["vote"] == "YES"

    asyncio.run(scenario())


@pytest.fixture
def cluster(tmp_path):
    cluster = local_cluster(["S1"], data_dir=str(tmp_path))
    cluster.save(str(tmp_path / "cluster.json"))
    return cluster


@pytest.fixture
def cluster_file(cluster, tmp_path):
    return str(tmp_path / "cluster.json")


class TestKillRestartO2PC:
    def test_locally_committed_survives_kill_and_compensates_on_abort(
        self, cluster, cluster_file,
    ):
        proc = spawn_daemon(cluster_file)
        try:
            daemon_ready(cluster)
            execute_and_vote(cluster)
            # O2PC: the YES vote locally committed — updates exposed.
            assert site_read(cluster, "S1", "k0") == 70

            # The crash window: after VOTE-COMMIT, before any decision.
            proc.send_signal(signal.SIGKILL)
            proc.wait()

            proc = spawn_daemon(cluster_file)
            status = daemon_ready(cluster, recovered=True)

            # WAL recovery re-derived the classification the simulated
            # restart oracle checks: T1 is locally committed, not in
            # doubt, and its exposed update was redone into the store.
            assert status["fresh_boot"] is False
            assert status["recovered"]["locally_committed"] == ["T1"]
            assert status["recovered"]["in_doubt"] == []
            assert site_read(cluster, "S1", "k0") == 70

            # Global ABORT: the daemon must compensate (semantic undo),
            # not roll back — the locks are long gone.
            ack = run_round(
                cluster, MsgType.DECISION, {"decision": "ABORT"},
                MsgType.ACK,
            )
            assert ack.payload["compensated"] is True
            assert site_read(cluster, "S1", "k0") == 100
        finally:
            if proc.poll() is None:
                try:
                    site_shutdown(cluster, "S1")
                    proc.wait(timeout=5)
                except (OSError, subprocess.TimeoutExpired):
                    proc.kill()
                    proc.wait()

    def test_commit_decision_after_restart_finalizes(
        self, cluster, cluster_file,
    ):
        proc = spawn_daemon(cluster_file)
        try:
            daemon_ready(cluster)
            execute_and_vote(cluster)
            proc.send_signal(signal.SIGKILL)
            proc.wait()

            proc = spawn_daemon(cluster_file)
            daemon_ready(cluster, recovered=True)

            ack = run_round(
                cluster, MsgType.DECISION, {"decision": "COMMIT"},
                MsgType.ACK,
            )
            assert ack.payload["compensated"] is False
            assert site_read(cluster, "S1", "k0") == 70
        finally:
            if proc.poll() is None:
                try:
                    site_shutdown(cluster, "S1")
                    proc.wait(timeout=5)
                except (OSError, subprocess.TimeoutExpired):
                    proc.kill()
                    proc.wait()


def log_decision(cluster, site_id, decision, sites):
    """Append the DECIDE a coordinator hosted at ``site_id`` forced before
    the daemon died (its DECISIONs never left)."""
    wal = WriteAheadLog(site_id, path=cluster.wal_path(site_id))
    wal.append(
        RecordType.DECIDE, COORD, force=True, decision=decision, sites=sites,
    )
    wal.close()


class TestDecisionRetransmission:
    def test_resend_pending_finalizes_a_restarted_in_doubt_daemon(
        self, cluster, cluster_file,
    ):
        # The full termination loop over real processes: the daemon is
        # SIGKILLed between its vote and the decision, with the decision
        # already in its log (a coordinator it hosted had forced it).  It
        # restarts *in doubt* (write locks re-acquired) and its own
        # coordinator role re-delivers the decision — to itself, here.
        proc = spawn_daemon(cluster_file, scheme="TWO_PL")
        try:
            daemon_ready(cluster)
            execute_and_vote(cluster)
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            log_decision(cluster, "S1", "COMMIT", ["S1"])

            proc = spawn_daemon(cluster_file, scheme="TWO_PL")
            status = daemon_ready(cluster, recovered=True)
            assert status["recovered"]["in_doubt"] == ["T1"]

            client = NetClient(cluster)
            assert client.resend_pending() == {}
            assert client.pending_decisions == {}
            # The in-doubt transaction was finalized: update applied,
            # locks released (a fresh read gets through immediately).
            assert site_read(cluster, "S1", "k0") == 70
        finally:
            if proc.poll() is None:
                try:
                    site_shutdown(cluster, "S1")
                    proc.wait(timeout=5)
                except (OSError, subprocess.TimeoutExpired):
                    proc.kill()
                    proc.wait()

    def test_resend_pending_times_out_against_a_dead_daemon(self, tmp_path):
        # The coordinator's daemon is up; the participant it owes (S2) is
        # not.  The retransmission round expires and the decision stays
        # pending for the next attempt.
        cluster = local_cluster(["S1", "S2"], data_dir=str(tmp_path))
        cluster_file = str(tmp_path / "cluster.json")
        cluster.save(cluster_file)
        proc = spawn_daemon(cluster_file, scheme="TWO_PL")
        try:
            daemon_ready(cluster)
            site_shutdown(cluster, "S1")
            proc.wait(timeout=5)
            log_decision(cluster, "S1", "ABORT", ["S2"])
            proc = spawn_daemon(cluster_file, scheme="TWO_PL")
            daemon_ready(cluster, recovered=True)

            client = NetClient(cluster)
            assert client.resend_pending() == {"T1": ["S2"]}
            assert client.pending_decisions == {"T1": ("ABORT", ["S2"])}
        finally:
            if proc.poll() is None:
                try:
                    site_shutdown(cluster, "S1")
                    proc.wait(timeout=5)
                except (OSError, subprocess.TimeoutExpired):
                    proc.kill()
                    proc.wait()


class TestKillRestart2PL:
    def test_prepared_participant_restarts_in_doubt(
        self, cluster, cluster_file,
    ):
        # Under 2PL the YES vote only prepares: the kill leaves the
        # participant *in doubt*, and recovery must re-acquire its write
        # locks and block — not expose the update.
        proc = spawn_daemon(cluster_file, scheme="TWO_PL")
        try:
            daemon_ready(cluster)
            execute_and_vote(cluster)
            # The volatile store applies writes in place (the X lock is
            # what keeps them unexposed); prepared but not committed.
            assert site_read(cluster, "S1", "k0") == 70

            proc.send_signal(signal.SIGKILL)
            proc.wait()

            proc = spawn_daemon(cluster_file, scheme="TWO_PL")
            status = daemon_ready(cluster, recovered=True)
            assert status["recovered"]["in_doubt"] == ["T1"]
            assert status["recovered"]["locally_committed"] == []
            assert site_read(cluster, "S1", "k0") == 100

            ack = run_round(
                cluster, MsgType.DECISION, {"decision": "COMMIT"},
                MsgType.ACK,
            )
            assert ack.payload["compensated"] is False
            assert site_read(cluster, "S1", "k0") == 70
        finally:
            if proc.poll() is None:
                try:
                    site_shutdown(cluster, "S1")
                    proc.wait(timeout=5)
                except (OSError, subprocess.TimeoutExpired):
                    proc.kill()
                    proc.wait()
