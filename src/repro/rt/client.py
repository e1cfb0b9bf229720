"""NetClient: submit global transactions to a live cluster and await them.

The client coordinates nothing: each transaction's coordinator runs in the
daemon of its first site (:mod:`repro.rt.daemon`).  :meth:`NetClient.submit`
sends that daemon one ``submit`` frame (the spec and the client's
:class:`~repro.commit.base.CommitConfig`) and awaits one ``told`` reply —
a COMMIT at the commit point, behind the fsync of its ``DECIDE``; anything
else at termination, ``compensated_sites`` included.  If the connection
dies first, the caller asks the restarted daemon: only a ``DECIDE(COMMIT)``
in its log means committed.  A submission no daemon accepted did not
commit either.  A run returns once every coordinator it started has
terminated (an admin ``drain``).  Any number of clients may share a cluster.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict
from typing import Any

from repro.commit.base import CommitConfig, CommitScheme
from repro.errors import CommitProtocolError
from repro.rt.backoff import RedialPolicy
from repro.rt.config import ClusterConfig
from repro.rt.wire import (
    encode_frame,
    outcome_from_json,
    read_frame,
    spec_to_json,
    split_frames,
    write_frame,
)
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome

#: how long a caller whose coordinating daemon was lost waits for it to
#: come back, in ticks at the client's ``time_scale``: ten default spawn
#: timeouts, far longer than a daemon restart
LOST_COORDINATOR_TICKS = 2000.0


class _Connection(asyncio.Protocol):
    """One connection to a daemon: frames out (one write per loop
    iteration), ``told`` replies in, matched to their waiter by txn id."""

    def __init__(self) -> None:
        self.writer: Any = None
        #: txn -> future of its told body (None: the connection died)
        self.waiting: dict[str, asyncio.Future[dict[str, Any] | None]] = {}
        self._buffer = bytearray()
        self._queued: list[bytes] = []

    def connection_made(self, transport: Any) -> None:
        self.writer = transport

    def send(self, frame: bytes) -> None:
        if not self._queued:
            asyncio.get_running_loop().call_soon(self._write)
        self._queued.append(frame)

    def _write(self) -> None:
        frames, self._queued = self._queued, []
        if not self.writer.is_closing():
            self.writer.write(b"".join(frames))

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        for body in split_frames(self._buffer):
            future = self.waiting.pop(body.get("txn"), None)
            if future is not None and not future.done():
                future.set_result(body)

    def connection_lost(self, exc: Exception | None) -> None:
        waiting, self.waiting = self.waiting, {}
        for future in waiting.values():
            if not future.done():
                future.set_result(None)


class SubmitTransport:
    """The client's connections, one per coordinating daemon.

    The counters a daemon's transport keeps of the protocol frames it
    writes are all 0 here: the coordinators live in the daemons, and a
    submission, like an admin frame, is not protocol traffic.
    """

    frames_sent = 0
    messages_framed = 0

    def __init__(self, cluster: ClusterConfig) -> None:
        self.cluster = cluster
        self._dials: dict[str, asyncio.Task[_Connection]] = {}

    def total_sent(self) -> int:
        return 0

    async def request(
        self, site_id: str, body: dict[str, Any], txn_id: str,
    ) -> dict[str, Any] | None:
        """Send ``body``; await the told reply for ``txn_id`` (None: the
        connection died first).  :class:`OSError`: nothing was sent."""
        loop = asyncio.get_running_loop()
        dial = self._dials.get(site_id)
        if dial is None or dial.done() and (
            dial.exception() is not None or dial.result().writer.is_closing()
        ):
            # One dial per site, shared by the submissions racing it.
            dial = self._dials[site_id] = loop.create_task(
                self._dial(site_id)
            )
        link = await dial
        if txn_id in link.waiting:
            raise CommitProtocolError(f"{txn_id} is already in flight")
        future: asyncio.Future[dict[str, Any] | None] = loop.create_future()
        link.waiting[txn_id] = future
        link.send(encode_frame(body))
        return await future

    async def _dial(self, site_id: str) -> _Connection:
        link = _Connection()
        await asyncio.get_running_loop().create_connection(
            lambda: link, *self.cluster.site(site_id).address,
        )
        return link

    def close(self) -> None:
        """Hang up (the connections belong to one event loop)."""
        for dial in self._dials.values():
            if dial.done() and dial.exception() is None:
                dial.result().writer.close()
            else:
                dial.cancel()
        self._dials.clear()


class NetClient:
    """Submits transactions to their coordinating daemons."""

    def __init__(
        self,
        cluster: ClusterConfig,
        scheme: CommitScheme | None = None,
        commit: CommitConfig | None = None,
        time_scale: float = 0.01,
    ) -> None:
        self.cluster = cluster
        #: the scheme the caller expects; a daemon running another refuses
        #: the submission (None: whatever the daemons run)
        self.scheme = scheme
        #: the coordinators' timeouts, sent with every submission
        self.commit = commit or CommitConfig()
        #: wall seconds per tick, as the daemons run them
        self.time_scale = time_scale
        self.transport = SubmitTransport(cluster)
        #: what differs from the defaults, which the daemons share
        defaults = asdict(CommitConfig())
        self._commit_json = {
            k: v for k, v in asdict(self.commit).items() if v != defaults[k]
        }
        #: the daemons coordinating what this client submitted
        self._coordinators: set[str] = set()
        self.outcomes: list[TxnOutcome] = []
        #: wall seconds from submit until the caller was told, in the order
        #: callers were told
        self.latencies: list[float] = []

    async def submit(self, spec: GlobalTxnSpec) -> TxnOutcome:
        """Run one global transaction; resolves when the caller is told."""
        started = time.perf_counter()
        site_id = spec.subtxns[0].site_id
        self._coordinators.add(site_id)
        body: dict[str, Any] = {
            "kind": "submit", "spec": spec_to_json(spec),
            "commit": self._commit_json,
        }
        if self.scheme is not None:
            body["scheme"] = self.scheme.value
        try:
            told = await self.transport.request(site_id, body, spec.txn_id)
        except OSError:
            told = {"outcome": {"txn_id": spec.txn_id, "committed": False}}
        if told is None:
            told = await self._ask(site_id, spec.txn_id)
        if "error" in told:
            raise CommitProtocolError(told["error"])
        outcome = outcome_from_json(told["outcome"])
        self.outcomes.append(outcome)
        self.latencies.append(time.perf_counter() - started)
        return outcome

    async def _ask(self, site_id: str, txn_id: str) -> dict[str, Any]:
        """What became of ``txn_id``, from a daemon we lost (and that may
        still be restarting)."""
        loop = asyncio.get_running_loop()
        give_up = loop.time() + LOST_COORDINATOR_TICKS * self.time_scale
        redial = RedialPolicy(f"ask:{txn_id}")
        query = {"kind": "admin", "cmd": "outcome", "txn": txn_id}
        while True:
            try:
                told = await self.transport.request(site_id, query, txn_id)
                if told is not None:
                    return told
            except OSError:
                pass
            if loop.time() >= give_up:
                raise TimeoutError(
                    f"{txn_id}: {site_id} did not come back; outcome unknown"
                )
            await asyncio.sleep(redial.record_failure(site_id, loop.time()))

    async def run_pipelined(
        self, specs: list[GlobalTxnSpec], sessions: int = 16,
    ) -> list[TxnOutcome]:
        """Run transactions as ``sessions`` closed-loop sessions sharing
        one queue of specs; outcomes in ``specs`` order.  Returns once
        every coordinator it started has terminated."""
        if sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {sessions}")
        results: list[TxnOutcome | None] = [None] * len(specs)
        todo = iter(enumerate(specs))

        async def session() -> None:
            for index, spec in todo:
                results[index] = await self.submit(spec)

        try:
            await asyncio.gather(*(session() for _ in range(sessions)))
            replies = await _admin_all(
                self.cluster, "drain", sorted(self._coordinators),
            )
        finally:
            self.transport.close()
        failed = [f for reply in replies.values() for f in reply["failed"]]
        if failed:
            raise CommitProtocolError("; ".join(failed))
        return [outcome for outcome in results if outcome is not None]

    async def run_session(
        self, specs: list[GlobalTxnSpec],
    ) -> list[TxnOutcome]:
        """Run transactions one after the other."""
        return await self.run_pipelined(specs, sessions=1)

    def run_transaction(self, spec: GlobalTxnSpec) -> TxnOutcome:
        """Blocking wrapper: one transaction, one event loop."""
        return asyncio.run(self.run_session([spec]))[0]

    def run_transactions(
        self, specs: list[GlobalTxnSpec], sessions: int = 1,
    ) -> list[TxnOutcome]:
        """Blocking wrapper: serial (``sessions=1``) or pipelined batch."""
        return asyncio.run(self.run_pipelined(specs, max(1, sessions)))

    @property
    def pending_decisions(self) -> dict[str, tuple[str, list[str]]]:
        """What the cluster's coordinators still owe some site:
        txn -> (decision, unacked sites), from every daemon that answers."""
        replies = asyncio.run(_admin_all(self.cluster, "status"))
        return {
            txn_id: (decision, sites)
            for reply in replies.values()
            for txn_id, (decision, sites) in reply["pending"].items()
        }

    def resend_pending(self) -> dict[str, list[str]]:
        """Have every daemon re-send what it owes (the coordinator half of
        the 2PC termination protocol); returns {txn: sites still unacked}."""
        replies = asyncio.run(_admin_all(self.cluster, "resend"))
        return {
            txn_id: sites
            for reply in replies.values()
            for txn_id, (_decision, sites) in reply["pending"].items()
        }


# -- admin helpers (status / drain / shutdown frames) ---------------------------

async def _admin_roundtrip(
    cluster: ClusterConfig, site_id: str, cmd: str, **extra: Any,
) -> dict[str, Any] | None:
    spec = cluster.site(site_id)
    reader, writer = await asyncio.open_connection(*spec.address)
    try:
        await write_frame(writer, {"kind": "admin", "cmd": cmd, **extra})
        reply = await read_frame(reader)
    finally:
        writer.close()
    if reply is None:
        return None
    return reply.get("reply")


async def _admin_all(
    cluster: ClusterConfig, cmd: str, site_ids: list[str] | None = None,
) -> dict[str, dict[str, Any]]:
    """``cmd`` to every daemon (of ``site_ids``) at once; the replies of
    those that answer (a daemon that is down is skipped)."""
    site_ids = cluster.site_ids if site_ids is None else site_ids
    replies = await asyncio.gather(
        *(_admin_roundtrip(cluster, s, cmd) for s in site_ids),
        return_exceptions=True,
    )
    answered: dict[str, dict[str, Any]] = {}
    for site_id, reply in zip(site_ids, replies):
        if isinstance(reply, dict):
            answered[site_id] = reply
        elif not isinstance(reply, (OSError, type(None))):
            raise reply
    return answered


def site_status(
    cluster: ClusterConfig, site_id: str,
) -> dict[str, Any] | None:
    """Fetch one daemon's status snapshot (``repro client --status``)."""
    return asyncio.run(_admin_roundtrip(cluster, site_id, "status"))


def site_read(
    cluster: ClusterConfig, site_id: str, key: str,
) -> Any:
    """Read one key's committed value from a live daemon's store."""
    reply = asyncio.run(_admin_roundtrip(cluster, site_id, "read", key=key))
    return None if reply is None else reply.get("value")


def site_shutdown(
    cluster: ClusterConfig, site_id: str,
) -> dict[str, Any] | None:
    """Ask one daemon to shut down cleanly."""
    return asyncio.run(_admin_roundtrip(cluster, site_id, "shutdown"))
