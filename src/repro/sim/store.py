"""FIFO store: the producer/consumer channel used for site inboxes.

``put`` never blocks (stores are unbounded); ``get`` returns an event that
triggers with the oldest item as soon as one is available, or — given a
``timeout`` — with ``None`` once that many time units pass first.  Delivery
order is strictly FIFO for both items and waiting getters, which keeps
message processing deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Store:
    """Unbounded FIFO channel of items."""

    def __init__(self, env: "Environment", name: str = "store") -> None:
        self.env = env
        self.name = name
        self._items: deque[Any] = deque()
        #: waiting getters, each with its deadline timer (or None)
        self._getters: deque[tuple[Event, Timeout | None]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            getter, timer = self._getters.popleft()
            getter.succeed(item)
            if timer is not None:
                self.env.cancel(timer)
            return
        self._items.append(item)

    def get(self, timeout: float | None = None) -> Event:
        """Return an event that triggers with the next item, or with
        ``None`` once ``timeout`` time units pass first.

        An expired getter is withdrawn, so it never takes a later item; an
        item that comes first cancels the timer; an item already queued is
        taken at once and arms no timer.
        """
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        elif timeout is None:
            self._getters.append((event, None))
        else:
            timer = Timeout(self.env, timeout, event)
            timer.callbacks.append(self._expire)
            self._getters.append((event, timer))
        return event

    def _expire(self, timer: Timeout) -> None:
        getter = timer._value
        self._getters.remove((getter, timer))
        getter.succeed(None)

    def clear(self) -> list[Any]:
        """Drop and return all queued items (used on site crash)."""
        dropped = list(self._items)
        self._items.clear()
        return dropped

    def __repr__(self) -> str:
        return (
            f"<Store {self.name!r} items={len(self._items)} "
            f"waiting={len(self._getters)}>"
        )
