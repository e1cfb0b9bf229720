"""Incremental per-key conflict index over one site's history.

A pairwise scan of a site history costs O(n²) conflict tests per build,
and an SG is built for every oracle invocation — once per explored
schedule in the model checker.  The index maintains the
same information *as operations are recorded*: for every key it keeps the
set of transactions that accessed it (and the subset that wrote it), and
materializes a conflict edge the moment a later operation conflicts with an
earlier one.  Recording one operation costs O(#conflicting predecessors) —
amortized constant for the checker's workloads — and building an SG becomes
a filter over the already-known edge set instead of a quadratic rescan.

Semantics match the pairwise scan *exactly* (including transitive edges
``w1→w2→w3`` plus ``w1→w3``): ``tests/sg/scan_reference.py`` keeps the
scan, the property test in ``tests/sg/test_index.py`` asserts index ==
rebuild on random histories, and ``tests/check/test_parallel.py`` does
the same on the histories of explored checker schedules.

Edges are stored with the set of keys that induced them so the SG view can
exclude bookkeeping keys (the marking directory's ``MARKS_KEY``) without
touching data-item edges between the same pair of transactions.
"""

from __future__ import annotations

from typing import ItemsView

from repro.sg.conflicts import OpKind, Operation


class ConflictIndex:
    """Conflict edges of one site history, maintained incrementally."""

    __slots__ = ("_accessors", "_writers", "_keys_of", "_edges", "_by_txn")

    def __init__(self) -> None:
        #: key -> transactions with any operation on it
        self._accessors: dict[str, set[str]] = {}
        #: key -> transactions that wrote it
        self._writers: dict[str, set[str]] = {}
        #: txn -> keys it touched (for expunge)
        self._keys_of: dict[str, set[str]] = {}
        #: (earlier txn, later txn) -> keys inducing the edge
        self._edges: dict[tuple[str, str], set[str]] = {}
        #: txn -> incident edge pairs (for expunge)
        self._by_txn: dict[str, set[tuple[str, str]]] = {}

    def record(self, op: Operation) -> None:
        """Index one newly appended operation."""
        key, txn = op.key, op.txn_id
        if op.kind is OpKind.WRITE:
            sources = self._accessors.get(key, ())
        else:
            sources = self._writers.get(key, ())
        for src in sources:
            if src != txn:
                self._add_edge(src, txn, key)
        self._accessors.setdefault(key, set()).add(txn)
        if op.kind is OpKind.WRITE:
            self._writers.setdefault(key, set()).add(txn)
        self._keys_of.setdefault(txn, set()).add(key)

    def _add_edge(self, src: str, dst: str, key: str) -> None:
        pair = (src, dst)
        keys = self._edges.get(pair)
        if keys is None:
            keys = self._edges[pair] = set()
            self._by_txn.setdefault(src, set()).add(pair)
            self._by_txn.setdefault(dst, set()).add(pair)
        keys.add(key)

    def forget(self, txn_id: str) -> None:
        """Drop one transaction, as if its operations were never recorded.

        Sound for :meth:`SiteHistory.expunge` because conflict edges are
        pairwise facts: removing every edge incident to ``txn_id`` cannot
        affect an edge between two *other* transactions.
        """
        for key in self._keys_of.pop(txn_id, ()):
            accessors = self._accessors.get(key)
            if accessors:
                accessors.discard(txn_id)
            writers = self._writers.get(key)
            if writers:
                writers.discard(txn_id)
        for pair in self._by_txn.pop(txn_id, ()):
            self._edges.pop(pair, None)
            other = pair[0] if pair[1] == txn_id else pair[1]
            peers = self._by_txn.get(other)
            if peers:
                peers.discard(pair)

    def edges(self) -> ItemsView[tuple[str, str], set[str]]:
        """All ``(earlier, later) -> inducing keys`` entries."""
        return self._edges.items()

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return f"<ConflictIndex edges={len(self._edges)}>"
