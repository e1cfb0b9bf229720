"""Regular-cycle detection — the paper's correctness criterion.

A *regular cycle* is a global cyclic path that **includes** at least one
regular (non-compensating) global transaction, where "includes" is the
minimal-representation notion of :mod:`repro.sg.paths`.  The correctness
criterion: a history is correct iff its global SG contains no regular cycles
and no local cycles (Section 5).  Cycles whose minimal representations
consist only of compensating transactions (and, in the underlying node path,
local transactions) are explicitly *allowed* — compensating subtransactions
are mutually independent and need not observe a globally consistent state.

Operationalization.  Representations of cyclic paths are cyclic walks in the
segment graph; a representation is minimal when no run of consecutive
segments can be replaced by a single segment — equivalently, the cycle of
boundary nodes is **chordless** in the segment graph (a chord ``u → v``
between non-adjacent boundary nodes would shortcut the run from ``u`` to
``v``).  Hence:

    a regular cycle exists  ⇔  the segment graph contains a chordless
    cycle through a regular global transaction.

This reproduces the paper's judgements: in Example 1 the 3-segment cycle
``T2 → CT3 → CT1 → T2`` has the chord ``CT1 → CT3`` (inside ``SG2``), so the
only minimal cyclic representation is ``CT3 → CT1 → CT3`` — no regular
transaction, no regular cycle.  In Figure 1(a) the 2-segment cycle
``T2 → CT1 → T2`` has no chords (length-2 cycles never do), so it is a
regular cycle.

Local transactions never appear as boundary nodes of a chordless cycle: they
exist in a single local SG, so both incident segments lie in that SG and the
transitive closure provides the chord that merges them.  Local cycles proper
(cycles inside one local SG) are checked separately — they would mean the
local DBMS failed to produce a serializable local history.

Cost.  A segment graph is a transitive closure, quadratic on a long
dependency chain — the shape of a correct history — so the judge closes
only the nontrivial strongly connected components of the union graph
(found in O(V+E)) that hold a candidate, each among its own members.
That is exact: the search finds the same first cycle (docs/THEORY.md §4).
"""

from __future__ import annotations

from repro.errors import CorrectnessViolation
from repro.sg.graph import GlobalSG, TxnKind, classify
from repro.sg.paths import SegmentGraph, union_components


def find_chordless_cycle_through(
    graph: SegmentGraph, start: str
) -> list[str] | None:
    """Find a chordless segment-graph cycle through ``start``.

    Returns the cycle's boundary nodes ``[start, ..., start]`` or None.  A
    cycle ``v0 → v1 → ... → vk = v0`` is chordless when the only segments
    among its boundary nodes are the k consecutive ones.
    """
    # DFS over simple paths from `start`, maintaining chordlessness as an
    # invariant.  Key observation: once the current node has a segment back
    # to `start`, the *only* chordless completion is to close immediately —
    # extending further would leave that segment as a chord of the larger
    # cycle.  Likewise a candidate next node is rejected when any segment
    # connects it to a non-adjacent path node (in either direction: forward
    # chords shortcut the run between their end points; wrap-around chords
    # shortcut through `start` and drop it).
    path = [start]
    on_path = {start}

    def extend(node: str) -> list[str] | None:
        if node != start and graph.has_segment(node, start):
            return list(path) + [start] if len(path) >= 2 else None
        for succ in sorted(graph.successors(node)):
            if succ in on_path:
                continue
            # chord into succ from a non-predecessor path node?
            if any(graph.has_segment(p, succ) for p in path if p != node):
                continue
            # chord from succ back into the path (start handled above)?
            if any(graph.has_segment(succ, p) for p in path[1:]):
                continue
            path.append(succ)
            on_path.add(succ)
            found = extend(succ)
            path.pop()
            on_path.discard(succ)
            if found is not None:
                return found
        return None

    return extend(start)


def find_regular_cycle(
    gsg: GlobalSG, regular_nodes: set[str] | None = None
) -> list[str] | None:
    """Return a regular cycle's boundary nodes, or None if the SG is correct.

    Searches for a chordless segment-graph cycle through each regular global
    transaction (sorted order, so results are deterministic).  Nodes outside
    a nontrivial strongly connected component of the union graph cannot be
    on any cycle and are skipped; each component that holds a candidate
    gets the segment graph among its members only (see the module
    docstring), so an acyclic union graph builds no closure at all.

    ``regular_nodes`` selects which nodes count as regular global
    transactions; it defaults to every non-CT, non-local node (the paper's
    **literal** criterion).  Passing only the *committed* global
    transactions gives the **effective** criterion: a globally-aborted
    transaction, whose exposed updates were all revoked by its
    compensation, is — together with its ``CT_i`` — part of the
    compensation machinery (the paper models a failed transaction's undo as
    a blend of roll-backs and compensating subtransactions), so cycles
    confined to such pairs are treated like CT-only cycles.  The
    distinction matters: the practical protocol implementation (the paper's
    "acceptable compromise", which latches rather than locks the marking
    sets) can strand a *literal* regular cycle through a transaction it
    aborts after exposure, while it does prevent every cycle through a
    committed transaction — see EXPERIMENTS.md (CLAIM-CORRECT) for a
    concrete trace.
    """
    cyclic = [c for c in union_components(gsg) if len(c) > 1]
    component_of = {node: i for i, c in enumerate(cyclic) for node in c}
    graphs: dict[int, SegmentGraph] = {}
    for node in sorted(component_of):
        if classify(node) is not TxnKind.GLOBAL:
            continue
        if regular_nodes is not None and node not in regular_nodes:
            continue
        i = component_of[node]
        if i not in graphs:
            graphs[i] = SegmentGraph(gsg, within=set(cyclic[i]))
        cycle = find_chordless_cycle_through(graphs[i], node)
        if cycle is not None:
            return cycle
    return None


def regular_cycle_in(gsg: GlobalSG, component: set[str]) -> list[str] | None:
    """A regular cycle (literal criterion) among the members of one
    strongly connected component of the union graph, or None."""
    graph: SegmentGraph | None = None
    for node in sorted(component):
        if classify(node) is TxnKind.GLOBAL:
            graph = graph or SegmentGraph(gsg, within=component)
            cycle = find_chordless_cycle_through(graph, node)
            if cycle is not None:
                return cycle
    return None


def find_local_cycle(gsg: GlobalSG) -> tuple[str, list[str]] | None:
    """Return ``(site_id, cycle)`` for a cycle inside one local SG, or None.

    Local cycles mean the site's own concurrency control failed; the paper
    assumes local histories are serializable, so these are checked only to
    validate that assumption on simulated runs.
    """
    for site_id in sorted(gsg.locals):
        cycle = gsg.locals[site_id].find_local_cycle()
        if cycle is not None:
            return site_id, cycle
    return None


def is_correct(
    gsg: GlobalSG, regular_nodes: set[str] | None = None
) -> bool:
    """The paper's correctness criterion: no local cycles, no regular cycles."""
    return (
        find_local_cycle(gsg) is None
        and find_regular_cycle(gsg, regular_nodes) is None
    )


def assert_correct(
    gsg: GlobalSG, regular_nodes: set[str] | None = None
) -> None:
    """Raise :class:`CorrectnessViolation` when the criterion fails."""
    local = find_local_cycle(gsg)
    if local is not None:
        site_id, cycle = local
        raise CorrectnessViolation(
            f"local cycle at {site_id}: {' -> '.join(cycle)}", cycle=cycle
        )
    cycle = find_regular_cycle(gsg, regular_nodes)
    if cycle is not None:
        raise CorrectnessViolation(
            f"regular cycle: {' -> '.join(cycle)}", cycle=cycle
        )
