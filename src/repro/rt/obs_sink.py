"""Collectable observability for live clusters: per-site JSONL sinks.

A ``SiteDaemon`` started with observability on subscribes a
:class:`JsonlEventSink` to its bus, streaming every published event to
``<data_dir>/<site_id>.events.jsonl`` — the same deterministic JSONL
schema ``repro trace`` writes, appended across restarts so a recovered
daemon's history stays in one file.

The read side: ``repro metrics --cluster c.json`` calls
:func:`aggregate_cluster`, which reads every site's stream with
:func:`~repro.obs.metrics.report_from_events`, the exact reader a
simulated run's JSONL goes through too.  Each coordinator runs in (and
publishes to) the daemon of its transaction's first site, so every
transaction's one ``txn.end`` is in exactly one stream, and commit/abort
counts come from it.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.events import Event
from repro.obs.export import event_to_dict, read_jsonl
from repro.obs.metrics import MetricsReport, report_from_events
from repro.rt.config import ClusterConfig


class JsonlEventSink:
    """Bus subscriber appending events to a JSONL file.

    Appends (a restarted daemon continues its stream) and flushes every
    ``flush_every`` events, so a collector reading a live cluster lags a
    bounded amount; :meth:`flush` is called from the daemon's admin
    ``status`` path so probing a site also drains its sink.
    """

    def __init__(self, path: str, flush_every: int = 64) -> None:
        self.path = path
        self.flush_every = flush_every
        self._handle: Any = open(path, "a", encoding="utf-8")
        self._unflushed = 0
        self.events_written = 0

    def __call__(self, event: Event) -> None:
        if self._handle is None:  # pragma: no cover - post-close publish
            return
        self._handle.write(json.dumps(
            event_to_dict(event), sort_keys=True, separators=(",", ":"),
        ))
        self._handle.write("\n")
        self.events_written += 1
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the file."""
        if self._handle is not None:
            self._handle.flush()
            self._unflushed = 0

    def close(self) -> None:
        """Flush and close the stream."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None


def read_events(path: str) -> list[Event]:
    """Load one site's event stream back into typed events."""
    with open(path, encoding="utf-8") as handle:
        return list(read_jsonl(handle))


def aggregate_cluster(
    cluster: ClusterConfig,
) -> tuple[MetricsReport, dict[str, int]]:
    """Read every site's event stream into one cluster-wide report.

    Returns the report plus a per-site event count (sites with no stream
    yet count zero — a daemon started without ``--obs``, or not yet
    flushed).  The latency percentiles are the coordinators' transaction
    latencies (``txn.end``) in simulation ticks; client-observed commit
    latency in milliseconds is ``commit_latency_*_ms`` of the ``net_*``
    workloads in ``bench/run.py``.
    """
    import os

    events: list[Event] = []
    per_site: dict[str, int] = {}
    for site_id in cluster.site_ids:
        path = cluster.events_path(site_id)
        stream = read_events(path) if os.path.exists(path) else []
        per_site[site_id] = len(stream)
        events.extend(stream)
    return report_from_events(events), per_site
