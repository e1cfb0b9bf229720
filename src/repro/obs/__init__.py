"""Structured observability: typed events, spans, metrics.

The measurement foundation of the reproduction.  The paper's claims are all
*temporal* — lock-hold shrinkage, blocking windows, compensation latency —
so every protocol layer emits typed, timestamped events through one
:class:`~repro.obs.events.EventBus` owned by the simulation
:class:`~repro.sim.engine.Environment`:

* :mod:`repro.obs.events` — the event taxonomy (dataclasses with a stable
  schema) and the bus itself (disabled by default: emission sites guard on
  ``bus.enabled``, so an un-observed run pays one attribute check);
* :mod:`repro.obs.spans` — folds the event stream into per-transaction span
  trees (spawn → vote → decision → compensation) with durations and a
  critical-path view;
* :mod:`repro.obs.metrics` — the one exact :class:`MetricsReport`, read
  from a system's logs (``report_from_logs``) or from a recorded event
  stream (``report_from_events``);
* :mod:`repro.obs.export` — deterministic JSONL serialization of the stream
  (same seed → byte-identical output);
* :mod:`repro.obs.render` — the human-readable timeline/gantt renderers
  (formerly ``repro.harness.trace``);
* :mod:`repro.obs.hub` — the :class:`Observability` facade a
  :class:`~repro.harness.system.System` owns, backing its ``events()``
  and ``spans()`` methods and the JSONL export.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, span model, JSONL
schema, and example queries.
"""

from repro.obs.events import Event, EventBus, EventLog
from repro.obs.export import event_to_dict, to_jsonl
from repro.obs.hub import Observability
from repro.obs.metrics import (
    MetricsReport,
    mean,
    percentile,
    report_from_events,
    report_from_logs,
)
from repro.obs.spans import Span, build_spans, render_span_tree

__all__ = [
    "Event",
    "EventBus",
    "EventLog",
    "MetricsReport",
    "Observability",
    "Span",
    "build_spans",
    "event_to_dict",
    "mean",
    "percentile",
    "render_span_tree",
    "report_from_events",
    "report_from_logs",
    "to_jsonl",
]
