"""Explaining cycles: from a verdict back to the operations that caused it.

``find_regular_cycle`` returns boundary nodes; :func:`explain_cycle` turns
each boundary segment into evidence a human can act on — the site whose
local SG realizes it, one concrete local path, and for each hop of that
path the earliest conflicting operation pair (reader/writer, key, history
positions).  ``examples/correctness_audit.py`` and the correctness tests
print these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sg.conflicts import Operation, conflicts
from repro.sg.graph import GlobalSG
from repro.sg.history import GlobalHistory
from repro.sg.paths import segment_sites


@dataclass
class ConflictEvidence:
    """The operation pair realizing one SG edge."""

    src_op: Operation
    dst_op: Operation

    def __repr__(self) -> str:
        return f"{self.src_op!r} < {self.dst_op!r}"


@dataclass
class SegmentExplanation:
    """One segment of a cycle: a local path plus per-edge evidence."""

    src: str
    dst: str
    site: str
    node_path: list[str]
    evidence: list[ConflictEvidence] = field(default_factory=list)

    def render(self) -> str:
        """One-line human rendering."""
        path = " -> ".join(self.node_path)
        keys = ",".join(
            sorted({e.src_op.key for e in self.evidence})
        )
        return f"{path}  @ {self.site}  (keys: {keys})"


def _local_node_path(gsg: GlobalSG, site: str, src: str, dst: str) -> list[str]:
    """A shortest node path ``src -> dst`` inside one local SG (BFS)."""
    sg = gsg.locals[site]
    parents: dict[str, str] = {}
    frontier = [src]
    seen = {src}
    while frontier:
        nxt = []
        for node in frontier:
            for succ in sorted(sg.successors(node)):
                if succ == dst:
                    path = [dst, node]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                if succ not in seen:
                    seen.add(succ)
                    parents[succ] = node
                    nxt.append(succ)
        frontier = nxt
    raise ValueError(f"no local path {src} -> {dst} at {site}")


def _edge_evidence(
    history: GlobalHistory, site: str, src: str, dst: str
) -> ConflictEvidence | None:
    """The earliest conflicting operation pair behind one local edge."""
    ops = history.sites[site].ops
    for i, earlier in enumerate(ops):
        if earlier.txn_id != src:
            continue
        for later in ops[i + 1:]:
            if later.txn_id == dst and conflicts(earlier, later):
                return ConflictEvidence(earlier, later)
    return None


def explain_cycle(
    gsg: GlobalSG,
    cycle: list[str],
    history: GlobalHistory | None = None,
) -> list[SegmentExplanation]:
    """Explain a boundary-node cycle (as returned by ``find_regular_cycle``).

    Each consecutive boundary pair becomes a :class:`SegmentExplanation`;
    when the originating :class:`GlobalHistory` is supplied, each hop of
    the local path carries the concrete conflicting operation pair.
    """
    explanations: list[SegmentExplanation] = []
    for src, dst in zip(cycle, cycle[1:]):
        sites = sorted(segment_sites(gsg, src, dst))
        if not sites:
            raise ValueError(f"{src} -> {dst} is not a segment of this SG")
        site = sites[0]
        node_path = _local_node_path(gsg, site, src, dst)
        explanation = SegmentExplanation(
            src=src, dst=dst, site=site, node_path=node_path,
        )
        if history is not None and site in history.sites:
            for a, b in zip(node_path, node_path[1:]):
                evidence = _edge_evidence(history, site, a, b)
                if evidence is not None:
                    explanation.evidence.append(evidence)
        explanations.append(explanation)
    return explanations


def render_explanation(explanations: list[SegmentExplanation]) -> str:
    """Multi-line rendering of a full cycle explanation."""
    lines = ["regular cycle, segment by segment:"]
    for explanation in explanations:
        lines.append(f"  {explanation.render()}")
        for evidence in explanation.evidence:
            lines.append(f"      {evidence!r}")
    return "\n".join(lines)
