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

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import chain
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


_index = tuple.index
_item = tuple.__getitem__
#: every other element from the first (the keys) or the second (values)
_KEYS = slice(0, None, 2)
_VALUES = slice(1, None, 2)


class Params(tuple):
    """A semantic operation's parameters: an immutable mapping stored as
    one flat, key-sorted tuple ``(k0, v0, k1, v1, ...)``.

    A one-entry ``Params`` is a 56-byte tuple where a dict is 184 bytes,
    and a run keeps every submitted operation.  It compares equal to the
    dict it was built from and reads like one (``[]``, ``get``, ``in``,
    ``len``, iteration, ``keys`` / ``items``, ``dict(p)``, ``**p``); a JSON
    encoder sees a tuple, so the encoders pass ``p.to_dict()``.  Build
    one with :meth:`of`.
    """

    __slots__ = ()

    @classmethod
    def of(cls, params: "Mapping[str, Any]") -> "Params":
        """The compact form of ``params`` (a ``Params`` is returned as is,
        an empty mapping as the shared :data:`NO_PARAMS`)."""
        if type(params) is cls:
            return params
        if len(params) == 1:
            # the one (key, value) pair is already the flat tuple
            return cls(*params.items())
        if not params:
            return NO_PARAMS
        return cls(chain.from_iterable(sorted(params.items())))

    def __getitem__(self, key: str) -> Any:
        # keys sit at even positions; a value equal to ``key`` is skipped
        i = -1
        try:
            while True:
                i = _index(self, key, i + 1)
                if not i & 1:
                    return _item(self, i + 1)
        except ValueError:
            raise KeyError(key) from None

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: object) -> bool:
        return key in _item(self, _KEYS)

    def __iter__(self) -> Iterator[str]:
        return iter(_item(self, _KEYS))

    def __len__(self) -> int:
        return tuple.__len__(self) >> 1

    def keys(self) -> tuple[str, ...]:
        return _item(self, _KEYS)

    def items(self) -> Iterator[tuple[str, Any]]:
        return zip(_item(self, _KEYS), _item(self, _VALUES))

    def to_dict(self) -> dict[str, Any]:
        """A new dict of the same entries, in key order."""
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Params):
            return tuple.__eq__(self, other)
        if isinstance(other, Mapping):
            return self.to_dict() == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    # Equal ``Params`` are equal tuples: the tuple hash keeps the
    # contract (and raises TypeError for an unhashable value).
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return repr(self.to_dict())


#: the parameters of every operation that takes none
NO_PARAMS = tuple.__new__(Params)

Mapping.register(Params)

_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class SemanticOp:
    """Apply the registered semantic operation ``name`` to ``key``.

    Semantic operations read and update their data item (exclusive lock).
    ``params`` are the operation's arguments (e.g. ``{"amount": 50}``),
    kept as :class:`Params`.
    """

    name: str
    key: str
    params: Params

    def __init__(
        self, name: str, key: str, params: "Mapping[str, Any]" = NO_PARAMS,
    ) -> None:
        _set(self, "name", name)
        _set(self, "key", key)
        if type(params) is dict and len(params) == 1:
            # the common shape, ``{"amount": n}``, without a call
            _set(self, "params", Params(*params.items()))
        else:
            _set(self, "params", Params.of(params))

    def __hash__(self) -> int:
        # Equal ops have equal parameter names, whatever their values: a
        # value may be unhashable (an ``insert`` can carry a list or dict
        # payload), or equal to one that is not (``frozenset({1}) ==
        # {1}``), so the values are never hashed.
        return hash((self.name, self.key, self.params.keys()))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.name}[{self.key}]({args})"


Op = Union[ReadOp, WriteOp, SemanticOp]

