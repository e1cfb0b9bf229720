"""In-memory key-value store: the data plane of one site.

Values are arbitrary Python objects; keys are strings.  The store itself is
oblivious to transactions — atomicity and isolation are layered on top by the
WAL, the recovery manager, and the lock manager.  A tombstone-free design is
used: deletion removes the key, and the WAL records ``TOMBSTONE`` as the
before-image of a write to an absent key and as the after-image of a write
that deletes, so undo and redo both restore absence faithfully.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import KeyNotFound


class _Tombstone:
    """Marker object: "the key did not exist"."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()


class KVStore:
    """A single site's database state."""

    def __init__(self, site_id: str = "site") -> None:
        self.site_id = site_id
        self._data: dict[str, Any] = {}
        #: monotone count of physical writes (metrics)
        self.write_count = 0
        self.read_count = 0

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> Any:
        """Return the value at ``key``; raises :class:`KeyNotFound` if absent."""
        self.read_count += 1
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFound(key) from None

    def get_or(self, key: str, default: Any = None) -> Any:
        """Return the value at ``key`` or ``default`` if absent."""
        self.read_count += 1
        return self._data.get(key, default)

    def exists(self, key: str) -> bool:
        """True if ``key`` is present."""
        return key in self._data

    def snapshot_value(self, key: str) -> Any:
        """Before-image of ``key``: its value, or ``TOMBSTONE`` if absent.

        Unlike :meth:`get`, this does not count as a logical read — it is used
        by the WAL layer to capture undo information.
        """
        return self._data.get(key, TOMBSTONE)

    # -- writes ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Set ``key`` to ``value``."""
        self.write_count += 1
        self._data[key] = value

    def delete(self, key: str) -> None:
        """Remove ``key`` (missing keys are ignored: idempotent delete)."""
        self.write_count += 1
        self._data.pop(key, None)

    def apply_image(self, key: str, image: Any) -> None:
        """Install an image captured by :meth:`snapshot_value` (undo/redo)."""
        if image is TOMBSTONE:
            self._data.pop(key, None)
        else:
            self._data[key] = image
        self.write_count += 1

    # -- bulk / introspection -------------------------------------------------------

    def keys(self) -> list[str]:
        """All keys, sorted (deterministic iteration for tests)."""
        return sorted(self._data)

    def items(self) -> Iterator[tuple[str, Any]]:
        """(key, value) pairs in sorted key order."""
        for key in self.keys():
            yield key, self._data[key]

    def snapshot(self) -> dict[str, Any]:
        """Shallow copy of the full state (checkpoints, test assertions)."""
        return dict(self._data)

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace the full state with ``snapshot`` (crash modeling)."""
        self._data = dict(snapshot)

    def wipe(self) -> None:
        """Lose all volatile state (what a crash does to main memory)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"<KVStore {self.site_id} keys={len(self._data)}>"
