"""Serialization-order witnesses.

For a *correct* history, the paper's criterion allows cycles only among
compensations (and local transactions); everything else embeds into a total
order.  :func:`serialization_order` produces such a witness: a topological
order of the global SG's condensation in which every non-trivial strongly
connected component consists of allowed nodes only — constructive evidence
that the history is equivalent to a serial execution up to the
compensation-independence allowance.

This is the library-level answer to "so *was* my execution serializable?":
``serialization_order(gsg)`` either returns the order or raises
:class:`~repro.errors.CorrectnessViolation` with the offending cycle.
"""

from __future__ import annotations

from repro.errors import CorrectnessViolation
from repro.sg.cycles import find_local_cycle, find_regular_cycle
from repro.sg.graph import GlobalSG, TxnKind, classify
from repro.sg.paths import SegmentGraph, strongly_connected_components, union_components


def serialization_order(
    gsg: GlobalSG, regular_nodes: set[str] | None = None
) -> list[list[str]]:
    """A serialization witness for a correct history.

    Returns the condensation of the union graph in topological order: a
    list of groups, each group being one strongly connected component
    (singletons for ordinary transactions; larger groups may contain only
    compensating transactions and local transactions — the cycles the
    criterion explicitly allows).  Raises
    :class:`~repro.errors.CorrectnessViolation` if the history is not
    correct (local cycle, or regular cycle through ``regular_nodes``).
    """
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

    graph = SegmentGraph(gsg)
    # Tarjan emits components in reverse topological order.
    components = strongly_connected_components(
        sorted(graph.nodes), graph.successors
    )
    ordered = [sorted(component) for component in reversed(components)]

    # Sanity: a non-trivial component must contain no *effective* regular
    # transaction (it may contain literal ones when the caller passed a
    # narrowed regular set).
    for group in ordered:
        if len(group) > 1:
            offenders = [
                node for node in group
                if classify(node) is TxnKind.GLOBAL
                and (regular_nodes is None or node in regular_nodes)
            ]
            if offenders:  # pragma: no cover - guarded by cycle checks
                raise CorrectnessViolation(
                    f"regular transactions {offenders} inside an SCC",
                    cycle=group,
                )
    return ordered


def is_serializable(gsg: GlobalSG) -> bool:
    """Plain serializability: the union graph is fully acyclic.

    The paper's criterion reduces to this when no global transaction
    aborts (no compensations exist).
    """
    return all(len(component) == 1 for component in union_components(gsg))
