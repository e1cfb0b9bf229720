"""NetSystem: the ``backend="net"`` implementation of the System API.

Where :class:`~repro.harness.system.System` assembles everything inside
one simulated environment, :class:`NetSystem` launches one **real
operating-system process per site** (``repro serve`` daemons), each the
host of the coordinators of the transactions it is first site of, and
submits transactions to them through a :class:`~repro.rt.client.NetClient`.
The protocol code is byte-for-byte the same; only the substrate changes.

Use it as a context manager::

    config = SystemConfig(n_sites=3, backend="net")
    with NetSystem(config) as system:
        outcome = system.run_transaction(spec)

Daemons for an ephemeral cluster (no ``sites_file``) get OS-assigned
ports and a temporary data directory, both cleaned up on exit.  With a
``sites_file``, the cluster file is the source of truth and the WALs in
its ``data_dir`` persist across runs — that is the production shape.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any

from repro.rt.client import NetClient, site_shutdown, site_status
from repro.rt.config import ClusterConfig, load_cluster, local_cluster
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome


def wait_for_port(
    host: str, port: int, deadline: float = 10.0,
) -> None:
    """Poll until something accepts on (host, port); raises on timeout."""
    # Real-wall deadline: this polls actual OS listeners, not the sim
    # clock, so the monotonic clock is the correct one here.
    end = time.monotonic() + deadline  # lint: allow-nondeterminism
    while True:
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return
        except OSError:
            if time.monotonic() >= end:  # lint: allow-nondeterminism
                raise TimeoutError(
                    f"no listener on {host}:{port} after {deadline:.0f}s"
                ) from None
            time.sleep(0.05)


class NetSystem:
    """A cluster of ``repro serve`` daemons plus a submitting client."""

    def __init__(self, config: Any) -> None:
        # Imported here: harness.system imports this module's sibling
        # packages, and the factory below needs both directions.
        from repro.harness.system import SystemConfig

        if not isinstance(config, SystemConfig):
            raise TypeError(f"expected SystemConfig, got {type(config)!r}")
        if config.backend != "net":
            raise ValueError(
                f"NetSystem requires backend='net', got {config.backend!r}"
            )
        self.config = config
        self._tmpdir: tempfile.TemporaryDirectory[str] | None = None
        if config.sites_file:
            self.cluster: ClusterConfig = load_cluster(config.sites_file)
        else:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-net-")
            from repro.ids import site_id as make_site_id

            self.cluster = local_cluster(
                [make_site_id(n) for n in range(1, config.n_sites + 1)],
                data_dir=self._tmpdir.name,
            )
        self.procs: dict[str, subprocess.Popen[bytes]] = {}
        self.client = NetClient(
            self.cluster,
            scheme=config.scheme,
            commit=config.commit,
            time_scale=config.time_scale,
        )
        self.outcomes = self.client.outcomes

    # -- daemon lifecycle ----------------------------------------------------

    def serve_argv(self, site_id: str) -> list[str]:
        """Command line of one site daemon."""
        argv = [
            sys.executable, "-m", "repro", "serve", site_id,
            "--cluster", self.cluster_file,
            "--time-scale", repr(self.config.time_scale),
        ]
        if isinstance(self.config.protocol, str):
            argv += ["--protocol", self.config.protocol]
        if self.config.scheme.name != "O2PC":
            argv += ["--scheme", self.config.scheme.name]
        if self.config.observability:
            argv += ["--obs"]
        return argv

    @property
    def cluster_file(self) -> str:
        """Path of the cluster file every daemon reads."""
        if self.config.sites_file:
            return self.config.sites_file
        path = os.path.join(self.cluster.data_dir, "cluster.json")
        if not os.path.exists(path):
            self.cluster.save(path)
        return path

    def start(self) -> "NetSystem":
        """Launch one daemon per site and wait for their listeners."""
        self.cluster_file  # materialize for ephemeral clusters
        for site_id in self.cluster.site_ids:
            self.start_site(site_id)
        for site_id in self.cluster.site_ids:
            spec = self.cluster.site(site_id)
            wait_for_port(spec.host, spec.port)
        return self

    def start_site(self, site_id: str) -> subprocess.Popen[bytes]:
        """Launch (or relaunch, after a kill) one site's daemon."""
        proc = subprocess.Popen(
            self.serve_argv(site_id),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": self._pythonpath()},
        )
        self.procs[site_id] = proc
        return proc

    @staticmethod
    def _pythonpath() -> str:
        src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        existing = os.environ.get("PYTHONPATH")
        return f"{src}{os.pathsep}{existing}" if existing else src

    def kill_site(self, site_id: str) -> None:
        """SIGKILL one daemon — the crash the WAL must survive."""
        proc = self.procs.get(site_id)
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()

    def site_status(self, site_id: str) -> dict[str, Any] | None:
        """One daemon's status snapshot over the admin channel."""
        return site_status(self.cluster, site_id)

    def stop(self) -> None:
        """Shut every daemon down (cleanly if possible) and clean up."""
        for site_id, proc in self.procs.items():
            if proc.poll() is not None:
                continue
            try:
                site_shutdown(self.cluster, site_id)
            except OSError:
                pass
        # Shutdown grace period for real subprocesses — wall time by design.
        deadline = time.monotonic() + 5.0  # lint: allow-nondeterminism
        for proc in self.procs.values():
            remaining = max(
                0.1, deadline - time.monotonic()  # lint: allow-nondeterminism
            )
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "NetSystem":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- transactions --------------------------------------------------------

    def run_transaction(self, spec: GlobalTxnSpec) -> TxnOutcome:
        """Run one global transaction against the live cluster."""
        return self.client.run_transaction(spec)

    def run_transactions(
        self, specs: list[GlobalTxnSpec], sessions: int = 1,
    ) -> list[TxnOutcome]:
        """Run a batch against the live cluster (pipelined when >1)."""
        return self.client.run_transactions(specs, sessions=sessions)
