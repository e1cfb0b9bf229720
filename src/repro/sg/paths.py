"""Global paths, representations, and minimal representations (Section 5).

A *local path* is a non-empty directed path inside one local SG.  A *global
path* ``A → D`` exists when ``D`` is reachable from ``A`` in the union graph.
A *representation* of a global path lists local paths (segments) that
constitute it in order; each segment is summarized by its end points and the
site it lives in.  A *minimal representation* uses the fewest segments, and a
global path **includes** a node when that node appears (as a segment end
point) on at least one minimal representation — the notion Example 1
illustrates: the global path ``CT1 → CT3`` does *not* include ``T2`` because
the one-segment representation inside ``SG2`` is shorter than the two-segment
one through ``T2``.

The computational core is the *segment graph*: a directed graph on SG nodes
with an edge ``u → v`` whenever some local SG has a local path ``u → v``
(:func:`segment_sites` names the sites).  Representations of a global path
correspond exactly to walks in the segment graph, and minimal
representations to shortest walks, so "includes" reduces to the classic
"does this node lie on a shortest path" test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sg.graph import SG, GlobalSG


@dataclass(frozen=True)
class Segment:
    """One local segment of a representation.

    ``sites`` lists every site whose local SG realizes this segment — the
    paper notes representations are not necessarily unique; this collapses
    the site choice.
    """

    src: str
    dst: str
    sites: frozenset[str]

    def __repr__(self) -> str:
        return f"{self.src}->{self.dst}@{{{','.join(sorted(self.sites))}}}"


class SegmentGraph:
    """Per-site transitive closure, unioned; ``within`` keeps only the
    segments among those nodes (exact for a union-graph component)."""

    def __init__(self, gsg: GlobalSG, within: set[str] | None = None) -> None:
        self._succ: dict[str, set[str]] = {}
        for sg in gsg.locals.values():
            for src, dsts in _transitive_closure(sg, within).items():
                # A local cycle is excluded here (local histories are
                # serializable); local-cycle detection is separate.
                dsts.discard(src)
                if dsts:
                    self._succ.setdefault(src, set()).update(dsts)
        self.nodes: set[str] = set(gsg.nodes if within is None else within)

    def successors(self, node: str) -> set[str]:
        """Nodes reachable from ``node`` by a single segment."""
        return set(self._succ.get(node, ()))

    def has_segment(self, src: str, dst: str) -> bool:
        """True if some local SG has a local path ``src → dst``."""
        return dst in self._succ.get(src, ())

    def distances_from(self, src: str) -> dict[str, int]:
        """BFS segment-count distances from ``src`` (``src`` itself: 0)."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for succ in self._succ.get(node, ()):
                if succ not in dist:
                    dist[succ] = dist[node] + 1
                    queue.append(succ)
        return dist

    def distances_to(self, dst: str) -> dict[str, int]:
        """BFS segment-count distances *to* ``dst`` (reverse BFS)."""
        reverse: dict[str, set[str]] = {}
        for node, succs in self._succ.items():
            for succ in succs:
                reverse.setdefault(succ, set()).add(node)
        dist = {dst: 0}
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for pred in reverse.get(node, ()):
                if pred not in dist:
                    dist[pred] = dist[node] + 1
                    queue.append(pred)
        return dist

    def distance(self, src: str, dst: str) -> int | None:
        """Minimal number of segments on a *non-empty* walk ``src → dst``.

        For ``src == dst`` this is the length of the shortest cyclic walk
        through the node (never 0).
        """
        best: int | None = None
        for succ in self._succ.get(src, ()):
            if succ == dst:
                return 1
            rest = self.distances_from(succ).get(dst)
            if rest is not None and (best is None or rest + 1 < best):
                best = rest + 1
        return best


def strongly_connected_components(
    nodes: list[str], successors
) -> list[list[str]]:
    """Iterative Tarjan SCC over an adjacency function.

    Returns components in reverse topological order (Tarjan's property):
    every edge leaving a component points to an earlier-emitted one.
    """
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        # Iterative DFS with explicit frames: (node, iterator over succs).
        work = [(root, iter(sorted(successors(root))))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(successors(succ)))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def union_components(gsg: GlobalSG) -> list[list[str]]:
    """Strongly connected components of the union graph, in O(V+E): the
    segment graph's too, since the two have the same reachability."""
    succ: dict[str, set[str]] = {}
    for sg in gsg.locals.values():
        for node in sg.nodes:
            succ.setdefault(node, set()).update(sg.successors(node))
    return strongly_connected_components(sorted(succ), succ.__getitem__)


def _transitive_closure(sg: SG, within: set[str] | None = None) -> dict[str, set[str]]:
    """Per-node reachability via SCC condensation and bitmask unions, in
    the subgraph of ``sg`` induced by ``within`` (default: all of it)."""
    keep = sg.nodes if within is None else within & sg.nodes

    def successors(node: str) -> set[str]:
        return sg.successors(node) & keep

    nodes = sorted(keep)
    components = strongly_connected_components(nodes, successors)
    comp_of: dict[str, int] = {}
    for cid, members in enumerate(components):
        for member in members:
            comp_of[member] = cid
    # Bit i of a mask = "component i is reachable".  Components arrive in
    # reverse topological order, so successors' masks are complete first.
    comp_mask: list[int] = [0] * len(components)
    for cid, members in enumerate(components):
        mask = 1 << cid if len(members) > 1 else 0
        for member in members:
            for succ in successors(member):
                scid = comp_of[succ]
                if scid != cid:
                    mask |= comp_mask[scid] | (1 << scid)
        comp_mask[cid] = mask

    closure: dict[str, set[str]] = {}
    comp_members = components
    for node in nodes:
        mask = comp_mask[comp_of[node]]
        reach: set[str] = set()
        cid = 0
        while mask:
            if mask & 1:
                reach.update(comp_members[cid])
            mask >>= 1
            cid += 1
        # Within a nontrivial SCC every member reaches every member,
        # including itself; the component bit above covers that.  For a
        # trivial SCC the node does not reach itself.
        if len(comp_members[comp_of[node]]) > 1:
            reach.update(comp_members[comp_of[node]])
        closure[node] = reach
    return closure


def segment_sites(gsg: GlobalSG, src: str, dst: str) -> frozenset[str]:
    """Sites whose local SG realizes the segment ``src → dst``."""
    return frozenset(
        site_id for site_id, sg in gsg.locals.items()
        if src != dst and sg.reachable(src, dst)
    )


def global_path_exists(gsg: GlobalSG, src: str, dst: str) -> bool:
    """True when the (non-empty) global path ``src → dst`` exists."""
    return SegmentGraph(gsg).distance(src, dst) is not None


def minimal_representations(
    gsg: GlobalSG, src: str, dst: str
) -> list[list[Segment]]:
    """All minimal representations of the global path ``src → dst``.

    Each representation is a list of :class:`Segment`; representations that
    differ only in the site realizing a segment are collapsed (the segment
    carries every realizing site).  ``src == dst`` yields the minimal cyclic
    representations through the node.  Returns ``[]`` when no path exists.
    """
    graph = SegmentGraph(gsg)
    total = graph.distance(src, dst)
    if total is None:
        return []

    dist_to_dst = graph.distances_to(dst)
    results: list[list[Segment]] = []

    def extend(node: str, prefix: list[Segment]) -> None:
        if node == dst and len(prefix) == total:
            results.append(list(prefix))
            return
        for succ in sorted(graph.successors(node)):
            used = len(prefix) + 1
            remaining = dist_to_dst.get(succ)
            if succ == dst:
                if used == total:
                    results.append(
                        prefix + [Segment(node, succ, segment_sites(gsg, node, succ))]
                    )
                continue
            if remaining is None or used + remaining != total:
                continue
            prefix.append(Segment(node, succ, segment_sites(gsg, node, succ)))
            extend(succ, prefix)
            prefix.pop()

    extend(src, [])
    return results


def path_includes(gsg: GlobalSG, src: str, dst: str, node: str) -> bool:
    """True when the global path ``src → dst`` *includes* ``node``.

    ``node`` is included when it appears on at least one minimal
    representation, i.e. it is an end point of some segment of a shortest
    segment-graph walk ``src → dst``.  End points are always included (when
    the path exists at all).
    """
    graph = SegmentGraph(gsg)
    total = graph.distance(src, dst)
    if total is None:
        return False
    if node in (src, dst):
        return True
    d1 = graph.distance(src, node)
    d2 = graph.distance(node, dst)
    return d1 is not None and d2 is not None and d1 + d2 == total
