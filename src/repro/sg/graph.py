"""Local and global serialization graphs.

A local :class:`SG` is the serialization graph of one site's history: nodes
are global transactions, compensating transactions, and *committed* local
transactions; there is an edge ``A → B`` when an operation of ``A`` precedes
and conflicts with an operation of ``B`` (Section 5).

A :class:`GlobalSG` is the union of local SGs:
:math:`SG_{global} = (\\bigcup V_a, \\bigcup E_a)`.  It keeps the local SGs
accessible because the paper's machinery (local paths, minimal
representations, the predicates A1–A4) quantifies over individual sites.

SGs can also be built directly (``add_edge``) to encode the paper's figures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro import ids
from repro.sg.history import GlobalHistory, SiteHistory


class TxnKind(enum.Enum):
    """Population a transaction id belongs to."""

    GLOBAL = "global"
    LOCAL = "local"
    COMPENSATING = "compensating"


def classify(txn_id: str) -> TxnKind:
    """Classify a transaction id by the library's naming convention.

    ``CT*`` ids are compensating, ``L*`` ids are local, everything else is a
    regular global transaction.
    """
    if ids.is_compensation_id(txn_id):
        return TxnKind.COMPENSATING
    if txn_id.startswith(ids.LOCAL_PREFIX):
        return TxnKind.LOCAL
    return TxnKind.GLOBAL


@dataclass
class SG:
    """The serialization graph of one site."""

    site_id: str
    nodes: set[str] = field(default_factory=set)
    _adj: dict[str, set[str]] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_history(cls, history: SiteHistory) -> "SG":
        """Build the local SG of a site history.

        Node set: transactions with operations here that were *exposed* at
        this site — committed or locally-committed transactions, still-active
        transactions, and compensating transactions.  Operations of
        transactions rolled back at this site are excluded: under strict 2PL
        the roll-back completes before any lock is released, so nothing here
        was ever exposed (this covers aborted local transactions and
        subtransactions undone at a NO-voting site alike).  The exposure the
        paper's theory accounts for — updates of a *locally-committed*
        transaction later compensated-for — is exactly what remains: such a
        transaction is in the committed set of its site, and its roll-back
        at other sites appears only through the degenerate ``CT_i``'s
        restoring writes.

        The edge set is read from the history's incremental
        :class:`~repro.sg.index.ConflictIndex` — O(edges) instead of an
        O(n²) pairwise rescan, which survives only as the test-side
        reference in ``tests/sg/scan_reference.py``.
        """
        from repro.core.marks import MARKS_KEY

        sg = cls(site_id=history.site_id)
        included = cls._included_nodes(history)
        for txn_id in included:
            sg.add_node(txn_id)
        # Marking-set accesses are protocol bookkeeping, not data: their
        # conflicts order transactions against compensations only under a
        # full 2PL discipline on the marking sets themselves (which the
        # paper's Section 6.2 remark shows to be deadlock-prone and which
        # the practical compromise abandons).  Recorded without that
        # discipline they inject non-2PL-consistent edges and fabricate
        # cycles, so edges induced only by MARKS_KEY are skipped.
        for (src, dst), keys in history.index.edges():
            if (
                src in included
                and dst in included
                and any(key != MARKS_KEY for key in keys)
            ):
                sg.add_edge(src, dst)
        return sg

    @staticmethod
    def _included_nodes(history: SiteHistory) -> set[str]:
        """Transactions whose operations were exposed at this site."""
        included: set[str] = set()
        for txn_id in history.transactions():
            if txn_id in history.aborted:
                continue
            kind = classify(txn_id)
            if kind is TxnKind.LOCAL and txn_id not in history.committed:
                continue
            included.add(txn_id)
        return included

    def add_node(self, node: str) -> None:
        """Add a node (idempotent)."""
        self.nodes.add(node)
        self._adj.setdefault(node, set())

    def add_edge(self, src: str, dst: str) -> None:
        """Add a directed edge ``src → dst`` (adds missing nodes)."""
        if src == dst:
            raise ValueError(f"self-loop {src} -> {dst} is not a conflict edge")
        self.add_node(src)
        self.add_node(dst)
        self._adj[src].add(dst)

    # -- queries -----------------------------------------------------------------

    def has_node(self, node: str) -> bool:
        """True if ``node`` is in the graph."""
        return node in self.nodes

    def has_edge(self, src: str, dst: str) -> bool:
        """True if the direct edge ``src → dst`` exists."""
        return dst in self._adj.get(src, ())

    def successors(self, node: str) -> set[str]:
        """Direct successors of ``node``."""
        return set(self._adj.get(node, ()))

    def edges(self) -> list[tuple[str, str]]:
        """All edges, sorted (deterministic)."""
        return sorted(
            (src, dst) for src, targets in self._adj.items() for dst in targets
        )

    def reachable(
        self, src: str, dst: str, avoid: str | None = None
    ) -> bool:
        """True if a (non-empty) local path ``src → dst`` exists.

        ``avoid`` excludes an intermediate node: "a path without having X on
        that path".  The endpoints themselves are never excluded.
        """
        if src not in self.nodes or dst not in self.nodes:
            return False
        stack = [src]
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            for succ in self._adj.get(node, ()):
                if succ == dst:
                    return True
                if succ in seen or succ == avoid:
                    continue
                seen.add(succ)
                stack.append(succ)
        return False

    def connected_either_direction(self, a: str, b: str) -> bool:
        """True if a local path exists between ``a`` and ``b`` in either
        direction (the paper's "path (in either direction)")."""
        return self.reachable(a, b) or self.reachable(b, a)

    def find_local_cycle(self) -> list[str] | None:
        """Return a cycle within this local SG (first == last), or None."""
        state: dict[str, int] = {}
        path: list[str] = []

        def visit(node: str) -> list[str] | None:
            state[node] = 1
            path.append(node)
            for succ in sorted(self._adj.get(node, ())):
                mark = state.get(succ, 0)
                if mark == 1:
                    return path[path.index(succ):] + [succ]
                if mark == 0:
                    found = visit(succ)
                    if found:
                        return found
            path.pop()
            state[node] = 2
            return None

        for node in sorted(self.nodes):
            if state.get(node, 0) == 0:
                found = visit(node)
                if found:
                    return found
        return None

    def __repr__(self) -> str:
        return (
            f"<SG {self.site_id} nodes={len(self.nodes)} "
            f"edges={len(self.edges())}>"
        )


@dataclass
class GlobalSG:
    """The union of local SGs for one run."""

    locals: dict[str, SG] = field(default_factory=dict)

    @classmethod
    def from_history(cls, history: GlobalHistory) -> "GlobalSG":
        """Build local SGs for every site of a global history."""
        return cls(
            locals={
                site_id: SG.from_history(site_history)
                for site_id, site_history in history.sites.items()
            }
        )

    def site(self, site_id: str) -> SG:
        """Get or create the local SG of ``site_id`` (for direct building)."""
        if site_id not in self.locals:
            self.locals[site_id] = SG(site_id=site_id)
        return self.locals[site_id]

    @property
    def nodes(self) -> set[str]:
        """Union of all local node sets."""
        result: set[str] = set()
        for sg in self.locals.values():
            result |= sg.nodes
        return result

    def sites_with(self, *nodes: str) -> list[str]:
        """Sites whose SG contains all of ``nodes``, sorted."""
        return sorted(
            site_id
            for site_id, sg in self.locals.items()
            if all(sg.has_node(n) for n in nodes)
        )

    def nodes_of_kind(self, kind: TxnKind) -> set[str]:
        """All nodes of one population."""
        return {n for n in self.nodes if classify(n) is kind}

    def __repr__(self) -> str:
        return f"<GlobalSG sites={sorted(self.locals)}>"

