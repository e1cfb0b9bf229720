"""The forgetting judge: a run's histories in O(in-flight) memory.

Every verdict of :mod:`repro.sg.cycles` and :mod:`repro.sg.atomicity` is
judged over whole histories, but a settled transaction can never again
change one.  :class:`HistoryJudge` watches the histories of a set of
sites and, in passes, drops the operations of every transaction group
(``T_i`` with its ``CT_i``, or a local transaction) that is *settled*:

* no member is *open*: each has ended (a ``COMMIT`` or ``ABORT`` end
  record, compensation included) at every site where it has operations
  or a termination, and the owner's :attr:`live` hook says no
  coordination can still start it elsewhere (globally decided);
* no member is reachable, in the union conflict graph, from an open
  transaction — the only kind that can still add an edge;
* no member lies on a violation: a nontrivial component of the union
  graph holding a regular or local cycle, a reader of both ``T_i`` and
  ``CT_i``, or a compensation that does not cover its forward writes.
  Those are *pinned* (kept for good), so the end-of-run judges, run over
  what is retained, return the verdicts of the full history
  (docs/THEORY.md §11 is the argument).

A retained read whose writer is dropped keeps that writer as its
*source* (:attr:`SiteHistory.sources`), so reads-from stays exact.

A pass runs when the operations recorded since the last one outnumber
those it kept plus the keys the sites hold: a pass costs O(retained
operations), so recording stays amortized O(1) per operation — the
fuzzy checkpoint's rule, with operations for records.  A pass builds
each site's graph afresh with one edge per conflict from the key's last
writer (and from its readers since), which has the full conflict
graph's reachability; the full graph stays the view of
:meth:`~repro.sg.graph.SG.from_history`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import ids
from repro.sg.conflicts import OpKind
from repro.sg.cycles import regular_cycle_in
from repro.sg.graph import SG, GlobalSG, TxnKind, classify
from repro.sg.paths import strongly_connected_components


def _group(txn_id: str) -> str:
    """The forward id a transaction is judged and forgotten with."""
    if ids.is_compensation_id(txn_id):
        return ids.compensated_txn_id(txn_id)
    return txn_id


class HistoryJudge:
    """Prunes the histories of ``sites`` (objects with ``history``, ``wal``
    and ``store``: :class:`~repro.txn.site.Site`) by the settled rule."""

    def __init__(
        self, sites: dict[str, Any],
        live: Callable[[str], bool] = lambda txn_id: False,
    ) -> None:
        self.sites = sites
        #: True while a coordination may still start ``txn_id`` at a site
        #: (the sim: its coordinator runs, or owes a decision)
        self.live = live
        #: transactions kept for good: they lie on a violation
        self.pinned: set[str] = set()
        #: called after each pass with the ids still retained (the marking
        #: audit keeps their transitions)
        self.on_prune: list[Callable[[set[str]], None]] = []
        #: operations recorded since the last pass, and the count that
        #: triggers the next one
        self.recorded = 0
        self.budget = sum(len(site.store) for site in sites.values())
        self.passes = 0
        self.forgotten = 0
        for site in sites.values():
            site.history.judge = self

    def stop(self) -> None:
        """Keep every operation from now on (for whole-history artifacts,
        such as a serialization witness)."""
        for site in self.sites.values():
            site.history.judge = None

    # -- the pass ---------------------------------------------------------------

    def prune(self) -> set[str]:
        """One pass: pin what violates, forget what is settled.  Returns
        the ids forgotten."""
        self.passes += 1
        histories = {sid: site.history for sid, site in self.sites.items()}
        where: dict[str, set[str]] = {}
        read_from: dict[str, set[str]] = {}
        gsg = GlobalSG()
        for sid, history in histories.items():
            sg, others = _scan(history, read_from)
            gsg.locals[sid] = sg
            for txn_id in sg.nodes | others:
                where.setdefault(txn_id, set()).add(sid)

        groups: dict[str, list[str]] = {}
        for txn_id in where:
            groups.setdefault(_group(txn_id), []).append(txn_id)
        open_groups = {
            group for group, members in groups.items()
            if self.live(group) or any(
                not self.sites[sid].wal.ended(member)
                for member in members for sid in where[member]
            )
        }
        succ: dict[str, set[str]] = {}
        for sg in gsg.locals.values():
            for node, targets in sg._adj.items():
                succ.setdefault(node, set()).update(targets)
        reached = {
            txn_id for txn_id in where if _group(txn_id) in open_groups
        }
        stack = list(reached)
        while stack:
            for nxt in succ.get(stack.pop(), ()):
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        self._pin_cycles(gsg, succ, reached)
        blocked = open_groups | {_group(t) for t in reached}
        gone = {
            txn_id for txn_id in where
            if _group(txn_id) not in blocked and txn_id not in self.pinned
        }
        self._pin_atomicity(histories, where, gone, read_from)
        gone -= self.pinned
        kept = 0
        for history in histories.values():
            history.forget(gone)
            kept += sum(op.txn_id not in self.pinned for op in history.ops)
        self.forgotten += len(gone)
        retained = set(where) - gone
        for hook in self.on_prune:
            hook(retained)
        self.recorded = 0
        # Pinned operations are evidence, not work: they do not widen the
        # window (a pass scans them, O(violations)).
        self.budget = kept + sum(len(s.store) for s in self.sites.values())
        return gone

    def _pin_cycles(
        self, gsg: GlobalSG, succ: dict[str, set[str]], reached: set[str],
    ) -> None:
        """Pin every cyclic component no open transaction reaches (it is
        final) that holds a regular cycle or a local one."""
        # Peel the acyclic part off first (Kahn): what is left holds every
        # cycle, and is usually empty.
        final = {n for n in succ if n not in reached}
        indegree = dict.fromkeys(final, 0)
        for node in final:
            for nxt in succ[node]:
                if nxt in indegree:
                    indegree[nxt] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        while ready:
            for nxt in succ[ready.pop()]:
                if nxt in indegree:
                    indegree[nxt] -= 1
                    if indegree[nxt] == 0:
                        ready.append(nxt)
        left = {n for n, d in indegree.items() if d > 0}
        if not left:
            return
        for component in strongly_connected_components(
            sorted(left), lambda n: succ[n] & left,
        ):
            members = set(component)
            if len(members) < 2 or members <= self.pinned:
                continue
            if regular_cycle_in(gsg, members) is not None or any(
                _has_cycle(sg, members) for sg in gsg.locals.values()
            ):
                self._pin(members)

    def _pin(self, txn_ids: Any) -> None:
        """Keep ``txn_ids`` and the rest of their groups for good."""
        for txn_id in txn_ids:
            group = _group(txn_id)
            self.pinned.add(group)
            if classify(group) is TxnKind.GLOBAL:
                self.pinned.add(ids.compensation_id(group))

    def _pin_atomicity(
        self, histories: dict[str, Any], where: dict[str, set[str]],
        gone: set[str], read_from: dict[str, set[str]],
    ) -> None:
        """Pin a reader about to go that read both ``T_i`` and ``CT_i``,
        and a group about to go whose compensation misses a forward
        write (Theorem 2's facts and precondition)."""
        for reader, writers in read_from.items():
            if reader in gone and any(
                ids.is_compensation_id(w)
                and ids.compensated_txn_id(w) in writers
                for w in writers
            ):
                self._pin([reader])
        aborted = [
            txn_id for txn_id in gone
            if classify(txn_id) is TxnKind.GLOBAL and (
                ids.compensation_id(txn_id) in where or any(
                    txn_id in histories[sid].aborted
                    for sid in where[txn_id]
                )
            )
        ]
        for txn_id in aborted:
            ct_id = ids.compensation_id(txn_id)
            for sid in where[txn_id]:
                writes: dict[str, set[str]] = {txn_id: set(), ct_id: set()}
                for op in histories[sid].ops:
                    if op.txn_id in writes and op.kind is OpKind.WRITE:
                        writes[op.txn_id].add(op.key)
                if not writes[txn_id] <= writes[ct_id]:
                    self._pin([txn_id])


def _scan(
    history: Any, read_from: dict[str, set[str]],
) -> tuple[SG, set[str]]:
    """One pass over a site's operations.

    Returns the site's SG with one edge per conflict from the key's last
    writer and from its readers since — the full SG's reachability, in
    O(operations) — and the ids here that are not its nodes; adds each
    reader's writers (reads-from, as :meth:`SiteHistory.reads_from`
    derives it, marking-set reads aside) to ``read_from``.
    """
    from repro.core.marks import MARKS_KEY

    aborted, committed = history.aborted, history.committed
    sources = history.sources
    sg = SG(site_id=history.site_id)
    adj = sg._adj
    included: dict[str, bool] = {}
    last_writer: dict[str, str] = {}
    readers: dict[str, set[str]] = {}
    last_write: dict[str, tuple[str, int]] = {}
    for op in history.ops:
        txn_id, key = op.txn_id, op.key
        inside = included.get(txn_id)
        if inside is None:
            inside = included[txn_id] = txn_id not in aborted and (
                txn_id in committed or classify(txn_id) is not TxnKind.LOCAL
            )
            if inside:
                sg.add_node(txn_id)
        if txn_id in aborted:
            continue
        write = op.kind is OpKind.WRITE
        if key == MARKS_KEY:
            if write:
                last_write[key] = (txn_id, op.seq)
            continue
        if write:
            last_write[key] = (txn_id, op.seq)
        else:
            source = last_write.get(key)
            carried = sources.get(op.seq) if sources else None
            if carried is not None and (
                source is None or carried[1] > source[1]
            ):
                source = carried
            if source is not None and source[0] != txn_id:
                read_from.setdefault(txn_id, set()).add(source[0])
        if not inside:
            continue
        writer = last_writer.get(key)
        if writer is not None and writer != txn_id:
            adj[writer].add(txn_id)
        if write:
            for reader in readers.pop(key, ()):
                if reader != txn_id:
                    adj[reader].add(txn_id)
            last_writer[key] = txn_id
        else:
            readers.setdefault(key, set()).add(txn_id)
    others = {t for t, inside in included.items() if not inside}
    return sg, others | committed | aborted


def _has_cycle(sg: SG, members: set[str]) -> bool:
    """True if ``sg`` restricted to ``members`` has a cycle."""
    nodes = sorted(members & sg.nodes)
    return any(
        len(c) > 1 for c in strongly_connected_components(
            nodes, lambda n: sg.successors(n) & members,
        )
    )
