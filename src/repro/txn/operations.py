"""Database operations for both decomposition models.

Generic model: :class:`ReadOp` and :class:`WriteOp` — arbitrary reads and
writes with no predefined semantics.  Compensation for these falls back to
installing before-images.

Restricted model: :class:`SemanticOp` — a named operation from a site's
registered repertoire (e.g. ``deposit``, ``insert``); the registry knows how
to apply it and how to build its semantic inverse, so compensation is a
counter-operation rather than a state restoration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union


@dataclass(frozen=True, slots=True)
class ReadOp:
    """Read the value of ``key`` (shared lock)."""

    key: str

    def __repr__(self) -> str:
        return f"r[{self.key}]"


@dataclass(frozen=True, slots=True)
class WriteOp:
    """Write ``value`` to ``key`` (exclusive lock)."""

    key: str
    value: Any = None

    def __repr__(self) -> str:
        return f"w[{self.key}={self.value!r}]"


@dataclass(frozen=True, slots=True)
class SemanticOp:
    """Apply the registered semantic operation ``name`` to ``key``.

    Semantic operations read and update their data item (exclusive lock).
    ``params`` are the operation's arguments (e.g. ``{"amount": 50}``).
    """

    name: str
    key: str
    params: dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        # The params dict is unhashable, and its *values* may be too (an
        # ``insert`` can carry a list or dict payload).  Hash a repr-stable
        # key instead: sort by parameter name and take each value's repr.
        # Equal ops (dataclass __eq__ compares params by value) have equal
        # item reprs, so the hash/eq contract holds.
        return hash((
            self.name,
            self.key,
            tuple(sorted((k, repr(v)) for k, v in self.params.items())),
        ))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.name}[{self.key}]({args})"


Op = Union[ReadOp, WriteOp, SemanticOp]

