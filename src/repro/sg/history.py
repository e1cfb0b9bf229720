"""Histories: per-site operation sequences and their classification.

A :class:`SiteHistory` is the (complete) local history of one site: a total
order of read/write operations, plus the termination status of transactions
(local transactions only enter the serialization graph once committed).

A :class:`GlobalHistory` bundles the site histories of one run and knows how
to classify transaction ids into the paper's three populations: global
transactions :math:`\\mathcal{T}`, their compensating transactions
:math:`\\mathcal{CT}`, and local transactions :math:`\\mathcal{L}`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import HistoryError
from repro.sg.conflicts import OpKind, Operation
from repro.sg.index import ConflictIndex


@dataclass
class SiteHistory:
    """The history of one site: complete, or, under a judge, everything
    but the transactions it forgot."""

    site_id: str
    ops: list[Operation] = field(default_factory=list)
    committed: set[str] = field(default_factory=set)
    aborted: set[str] = field(default_factory=set)
    #: conflict edges over ``ops``; read it through the :attr:`index`
    #: property, which indexes lazily (recording an operation is just a
    #: list append — conflict edges materialize on first index access,
    #: so runs that never build an SG never pay for one)
    _index: ConflictIndex = field(
        default_factory=ConflictIndex, repr=False, compare=False
    )
    _next_seq: int = field(default=0, repr=False, compare=False)
    #: number of leading ``ops`` already folded into ``_index``
    _indexed: int = field(default=0, repr=False, compare=False)
    #: the judge that prunes this history (None: it keeps everything);
    #: see :class:`~repro.sg.judge.HistoryJudge`
    judge: Any = field(default=None, repr=False, compare=False)
    #: read seq -> (writer, write seq): the latest forgotten write before
    #: a retained read, which :meth:`reads_from` still counts
    sources: dict[int, tuple[str, int]] = field(
        default_factory=dict, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        # Constructed around a pre-recorded ops list: resume the seq counter
        # past it (the lazy index picks the ops up on first access).
        if self.ops:
            self._next_seq = max(op.seq for op in self.ops) + 1

    @property
    def index(self) -> ConflictIndex:
        """The conflict index, synced to ``ops`` on access."""
        ops = self.ops
        start = self._indexed
        if start < len(ops):
            record = self._index.record
            for op in ops[start:]:
                record(op)
            self._indexed = len(ops)
        return self._index

    def _append(self, txn_id: str, kind: OpKind, key: str) -> Operation:
        if txn_id in self.committed or txn_id in self.aborted:
            raise HistoryError(
                f"{txn_id} already terminated at {self.site_id}"
            )
        # Monotonic counter, NOT len(self.ops): expunge removes operations,
        # so a length-based seq would be re-issued and break the "seq orders
        # operations" invariant the explain/order layers rely on.
        op = Operation(
            txn_id=txn_id, kind=kind, key=key, site=self.site_id,
            seq=self._next_seq,
        )
        self._next_seq += 1
        self.ops.append(op)
        judge = self.judge
        if judge is not None:
            judge.recorded += 1
            if judge.recorded > judge.budget:
                judge.prune()
        return op

    def read(self, txn_id: str, key: str) -> Operation:
        """Record a read of ``key`` by ``txn_id``."""
        return self._append(txn_id, OpKind.READ, key)

    def write(self, txn_id: str, key: str) -> Operation:
        """Record a write of ``key`` by ``txn_id``."""
        return self._append(txn_id, OpKind.WRITE, key)

    def commit(self, txn_id: str) -> None:
        """Mark ``txn_id`` committed at this site."""
        if txn_id in self.aborted:
            raise HistoryError(f"{txn_id} already aborted at {self.site_id}")
        self.committed.add(txn_id)

    def abort(self, txn_id: str) -> None:
        """Mark ``txn_id`` aborted at this site.

        Aborted transactions' operations are excluded from the SG (their
        effects were rolled back; the roll-back itself is modeled as a
        degenerate compensating transaction when the transaction is global).
        """
        if txn_id in self.committed:
            raise HistoryError(f"{txn_id} already committed at {self.site_id}")
        self.aborted.add(txn_id)

    def expunge(self, txn_id: str) -> None:
        """Erase a rolled-back transaction's operations from the history.

        Used for aborted *local* transactions and failed compensation
        attempts: their effects were fully undone under their own locks
        before exposure, and they are excluded from the SG in any case, so
        removing the operations keeps the recorded history equal to the
        committed-projection the SG layer consumes.  (Aborted *global*
        transactions are never expunged — the paper's theory keeps them.)
        """
        if txn_id in self.committed:
            raise HistoryError(f"{txn_id} committed at {self.site_id}")
        # Sync-then-forget: fold pending ops into the index first so the
        # forget sees every edge the expunged transaction induced, then
        # re-anchor the watermark to the filtered list.
        index = self.index
        self.ops = [op for op in self.ops if op.txn_id != txn_id]
        index.forget(txn_id)
        self._indexed = len(self.ops)
        self.aborted.discard(txn_id)

    def forget(self, gone: set[str]) -> None:
        """Drop settled transactions (:class:`~repro.sg.judge.HistoryJudge`
        decided nothing they did can change a verdict any more).

        A retained read keeps the latest dropped write before it as its
        :attr:`sources` entry, so :meth:`reads_from` is unchanged.
        """
        if not gone:
            return
        index = self.index if self._indexed else None
        sources = self.sources
        last_gone: dict[str, tuple[str, int]] = {}
        kept: list[Operation] = []
        for op in self.ops:
            if op.txn_id in gone:
                if op.kind is OpKind.WRITE and op.txn_id not in self.aborted:
                    last_gone[op.key] = (op.txn_id, op.seq)
                sources.pop(op.seq, None)
                continue
            kept.append(op)
            if op.kind is OpKind.READ and op.key in last_gone:
                source = last_gone[op.key]
                carried = sources.get(op.seq)
                if carried is None or carried[1] < source[1]:
                    sources[op.seq] = source
        self.ops = kept
        self.committed -= gone
        self.aborted -= gone
        if index is not None:
            for txn_id in gone:
                index.forget(txn_id)
            self._indexed = len(kept)

    # -- derived relations ----------------------------------------------------

    def transactions(self) -> set[str]:
        """All transaction ids with at least one operation here."""
        return {op.txn_id for op in self.ops}

    def reads_from(self) -> list[tuple[str, str, str]]:
        """The reads-from relation: (reader, writer, key) triples.

        Reader R reads key k from writer W when W's write is the latest
        write of k preceding R's read.  Operations of aborted transactions
        are ignored (their updates were undone before exposure under strict
        2PL).
        """
        result: list[tuple[str, str, str]] = []
        last_writer: dict[str, tuple[str, int]] = {}
        sources = self.sources
        for op in self.ops:
            if op.txn_id in self.aborted:
                continue
            if op.kind is OpKind.WRITE:
                last_writer[op.key] = (op.txn_id, op.seq)
            else:
                writer = last_writer.get(op.key)
                carried = sources.get(op.seq) if sources else None
                if carried is not None and (
                    writer is None or carried[1] > writer[1]
                ):
                    writer = carried
                if writer is not None and writer[0] != op.txn_id:
                    result.append((op.txn_id, writer[0], op.key))
        return result


@dataclass
class GlobalHistory:
    """The multi-site history of one run."""

    sites: dict[str, SiteHistory] = field(default_factory=dict)

    def site(self, site_id: str) -> SiteHistory:
        """Get or create the history of ``site_id``."""
        if site_id not in self.sites:
            self.sites[site_id] = SiteHistory(site_id)
        return self.sites[site_id]

    def transactions(self) -> set[str]:
        """All transaction ids appearing anywhere."""
        result: set[str] = set()
        for history in self.sites.values():
            result |= history.transactions()
        return result

    def reads_from(self) -> list[tuple[str, str, str, str]]:
        """Global reads-from: (reader, writer, key, site) tuples."""
        result = []
        for site_id in sorted(self.sites):
            for reader, writer, key in self.sites[site_id].reads_from():
                result.append((reader, writer, key, site_id))
        return result
