"""Deterministic JSONL export of the event stream.

One JSON object per line, in publish (``seq``) order.  Keys are sorted and
separators fixed, and every field is a primitive (the taxonomy guarantees
it), so a run with a fixed seed serializes to byte-identical output —
``repro trace --seed 7`` twice diffs clean.

Schema: every line carries ``kind``, ``ts``, ``seq``, plus the event
class's own fields (tuples serialize as JSON arrays).  See
``docs/OBSERVABILITY.md`` for the per-kind field tables.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Iterable

from repro.obs.events import Event


def event_to_dict(event: Event) -> dict[str, object]:
    """Flatten one event into a JSON-ready dict (``kind`` first)."""
    record: dict[str, object] = {"kind": event.kind}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if isinstance(value, tuple):
            value = list(value)
        record[field.name] = value
    return record


def _kind_registry() -> dict[str, type[Event]]:
    """Map each event ``kind`` to its dataclass (computed once)."""
    global _REGISTRY
    if _REGISTRY is None:
        registry: dict[str, type[Event]] = {}
        stack: list[type[Event]] = list(Event.__subclasses__())
        while stack:
            cls = stack.pop()
            registry[cls.kind] = cls
            stack.extend(cls.__subclasses__())
        _REGISTRY = registry
    return _REGISTRY


_REGISTRY: dict[str, type[Event]] | None = None


def event_from_dict(record: dict[str, object]) -> Event:
    """Inverse of :func:`event_to_dict`: rebuild the typed event.

    Used by the net backend's metrics path, which reads back the JSONL
    streams the daemons wrote.  JSON arrays return to tuples (the
    taxonomy's only container type) and the bus-stamped ``ts``/``seq``
    are restored verbatim.
    """
    kind = record.get("kind")
    cls = _kind_registry().get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    kwargs = {}
    for field in dataclasses.fields(cls):
        if not field.init:
            continue
        value = record[field.name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[field.name] = value
    event = cls(**kwargs)
    event.ts = record.get("ts", 0.0)  # type: ignore[assignment]
    event.seq = record.get("seq", -1)  # type: ignore[assignment]
    return event


def read_jsonl(handle: IO[str]) -> Iterable[Event]:
    """Yield events from an open JSONL handle (skips blank lines)."""
    for line in handle:
        line = line.strip()
        if line:
            yield event_from_dict(json.loads(line))


def to_jsonl(events: Iterable[Event]) -> str:
    """Serialize events to a JSONL string (one object per line)."""
    lines = [
        json.dumps(event_to_dict(event), sort_keys=True,
                   separators=(",", ":"))
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")
