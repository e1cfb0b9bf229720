"""Cluster configuration: the site-list file shared by daemons and clients.

A cluster file is plain JSON:

.. code-block:: json

    {
        "sites": {
            "S1": {"host": "127.0.0.1", "port": 7101},
            "S2": {"host": "127.0.0.1", "port": 7102}
        },
        "data_dir": "/var/lib/repro"
    }

Every daemon and every client reads the *same* file, so site identity and
addressing have a single source of truth (the pattern of the exemplar
socketed-TM systems: one config, N processes).  ``data_dir`` holds one WAL
file per site (``<data_dir>/<site_id>.wal``) — the durable state of the
site and of the coordinators it hosts, which ``repro serve`` restart
recovery replays.  Any number of clients may use one cluster.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SiteSpec:
    """Network address of one site daemon."""

    site_id: str
    host: str = "127.0.0.1"
    port: int = 0

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) pair for socket calls."""
        return (self.host, self.port)


@dataclass
class ClusterConfig:
    """The full cluster: site addresses plus the durable-state directory."""

    sites: dict[str, SiteSpec] = field(default_factory=dict)
    data_dir: str = "."

    def site(self, site_id: str) -> SiteSpec:
        """The spec of one site (raises KeyError with the known ids)."""
        try:
            return self.sites[site_id]
        except KeyError:
            known = ", ".join(sorted(self.sites)) or "(none)"
            raise KeyError(
                f"site {site_id!r} not in cluster config (sites: {known})"
            ) from None

    def wal_path(self, site_id: str) -> str:
        """Path of one site's durable write-ahead log file."""
        return os.path.join(self.data_dir, f"{site_id}.wal")

    def events_path(self, site_id: str) -> str:
        """Path of one site's observability event stream (JSONL)."""
        return os.path.join(self.data_dir, f"{site_id}.events.jsonl")

    def route_site(self, endpoint_id: str) -> str | None:
        """The site daemon hosting ``endpoint_id``, or None.

        Sites host themselves.  Paxos acceptors are co-hosted one per
        daemon: ``acc.<n>`` lives with the n-th site (sorted order), so a
        cluster of N daemons is its own 2F+1 = N acceptor ensemble.
        """
        if endpoint_id in self.sites:
            return endpoint_id
        if endpoint_id.startswith("acc."):
            try:
                n = int(endpoint_id[4:])
            except ValueError:
                return None
            ids = self.site_ids
            if 1 <= n <= len(ids):
                return ids[n - 1]
        return None

    def acceptor_hosted_by(self, site_id: str) -> str | None:
        """The acceptor id co-hosted at ``site_id`` (inverse of
        :meth:`route_site`)."""
        ids = self.site_ids
        if site_id in self.sites:
            return f"acc.{ids.index(site_id) + 1}"
        return None

    @property
    def site_ids(self) -> list[str]:
        """All configured site ids, sorted."""
        return sorted(self.sites)

    def to_json(self) -> dict[str, object]:
        """JSON form (inverse of :func:`cluster_from_json`)."""
        return {
            "sites": {
                spec.site_id: {"host": spec.host, "port": spec.port}
                for spec in self.sites.values()
            },
            "data_dir": self.data_dir,
        }

    def save(self, path: str) -> None:
        """Write the cluster file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def cluster_from_json(data: dict[str, object]) -> ClusterConfig:
    """Build a :class:`ClusterConfig` from parsed JSON."""
    sites_raw = data.get("sites")
    if not isinstance(sites_raw, dict) or not sites_raw:
        raise ValueError("cluster config needs a non-empty 'sites' object")
    sites: dict[str, SiteSpec] = {}
    for site_id, spec in sites_raw.items():
        if not isinstance(spec, dict) or "port" not in spec:
            raise ValueError(f"site {site_id!r} needs at least a 'port'")
        sites[site_id] = SiteSpec(
            site_id=site_id,
            host=str(spec.get("host", "127.0.0.1")),
            port=int(spec["port"]),
        )
    return ClusterConfig(
        sites=sites, data_dir=str(data.get("data_dir", ".")),
    )


def load_cluster(path: str) -> ClusterConfig:
    """Read and validate a cluster file."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: cluster config must be a JSON object")
    return cluster_from_json(data)


def local_cluster(
    site_ids: list[str], data_dir: str, host: str = "127.0.0.1",
) -> ClusterConfig:
    """A localhost cluster with OS-assigned free ports (test helper)."""
    import socket

    sites: dict[str, SiteSpec] = {}
    probes = []
    try:
        for site_id in site_ids:
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.bind((host, 0))
            probes.append(probe)
            sites[site_id] = SiteSpec(
                site_id=site_id, host=host, port=probe.getsockname()[1],
            )
    finally:
        for probe in probes:
            probe.close()
    return ClusterConfig(sites=sites, data_dir=data_dir)
