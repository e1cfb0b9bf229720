"""The :class:`Observability` facade a :class:`System` owns.

Bundles the bus with its one standing subscriber, the retained
:class:`~repro.obs.events.EventLog`, behind enable/disable, and exposes
the derived views (events, spans, JSONL).  Disabled by default:
:meth:`enable` attaches the recorder and flips the bus's emission guard
on.  The recorder is built on first use (the first :meth:`enable` or the
first view read), so a system that never records builds none.  Metrics
do not come from here: :meth:`System.metrics` reads the system's logs,
and :func:`~repro.obs.metrics.report_from_events` reads a recorded
stream.
"""

from __future__ import annotations

from repro.obs.events import Event, EventBus, EventLog
from repro.obs.export import to_jsonl
from repro.obs.spans import Span, build_spans


class Observability:
    """Event recording over one bus."""

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        self._log: EventLog | None = None
        self._attached = False

    @property
    def log(self) -> EventLog:
        """The retained recorder (empty until :meth:`enable`)."""
        if self._log is None:
            self._log = EventLog()
        return self._log

    @property
    def enabled(self) -> bool:
        """True while the bus is emitting into this hub.

        Another subscriber (the model checker's crash enumerator) may turn
        the bus on without the recorder attached; that is not recording.
        """
        return self._attached and self.bus.enabled

    def enable(self) -> None:
        """Attach the recorder; start emission."""
        self.bus.subscribe(self.log)
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
