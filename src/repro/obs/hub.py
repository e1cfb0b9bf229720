"""The :class:`Observability` facade a :class:`System` owns.

Bundles the bus with its two standing subscribers — the retained
:class:`~repro.obs.events.EventLog` and the incremental
:class:`~repro.obs.metrics.StreamingMetrics` — behind enable/disable, and
exposes the derived views (events, spans, JSONL, report).  Disabled by
default: :meth:`enable` attaches the subscribers and flips the bus's
emission guard on.  The two subscribers are built on first use (the first
:meth:`enable` or the first view read), so a system that never records
builds neither.
"""

from __future__ import annotations

from repro.obs.events import Event, EventBus, EventLog
from repro.obs.export import to_jsonl
from repro.obs.metrics import MetricsReport, StreamingMetrics
from repro.obs.spans import Span, build_spans


class Observability:
    """Event recording and streaming metrics over one bus."""

    def __init__(self, bus: EventBus, window: float = 10.0) -> None:
        self.bus = bus
        self._window = window
        self._log: EventLog | None = None
        self._stream: StreamingMetrics | None = None
        self._attached = False

    @property
    def log(self) -> EventLog:
        """The retained recorder (empty until :meth:`enable`)."""
        if self._log is None:
            self._log = EventLog()
        return self._log

    @property
    def stream(self) -> StreamingMetrics:
        """The streaming aggregator (empty until :meth:`enable`)."""
        if self._stream is None:
            self._stream = StreamingMetrics(window=self._window)
        return self._stream

    @property
    def enabled(self) -> bool:
        """True while the bus is emitting into this hub.

        Another subscriber (the model checker's crash enumerator) may turn
        the bus on without the recorder attached; that is not recording.
        """
        return self._attached and self.bus.enabled

    def enable(self) -> None:
        """Attach the recorder and streaming metrics; start emission."""
        self.bus.subscribe(self.log)
        self.bus.subscribe(self.stream)
        self._attached = True
        self.bus.enable()

    def disable(self) -> None:
        """Stop emission (recorded events are kept)."""
        self.bus.disable()

    # -- derived views -------------------------------------------------------

    def events(self) -> list[Event]:
        """Every recorded event, in publish order."""
        return list(self.log.events)

    def spans(self) -> dict[str, Span]:
        """Per-transaction span trees folded from the recorded events."""
        return build_spans(self.log.events)

    def jsonl(self) -> str:
        """The recorded stream as deterministic JSONL."""
        return to_jsonl(self.log.events)

    def report(self, elapsed: float | None = None) -> MetricsReport:
        """Streaming-metrics snapshot as a :class:`MetricsReport`."""
        return self.stream.report(elapsed)
