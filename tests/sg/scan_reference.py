"""Reference serialization graphs by the O(n²) pairwise conflict scan.

``SG.from_history`` reads its edges off the incremental
:class:`~repro.sg.index.ConflictIndex`; this module rebuilds the same
graphs the slow, obvious way so tests can demand the two agree.
"""

from repro.core.marks import MARKS_KEY
from repro.errors import HistoryError
from repro.sg import SG, GlobalHistory, GlobalSG, SiteHistory, conflicts


def sg_from_scan(history: SiteHistory) -> SG:
    """Every conflicting pair of data-item operations, in history order."""
    sg = SG(site_id=history.site_id)
    included = SG._included_nodes(history)
    for txn_id in included:
        sg.add_node(txn_id)
    ops = [
        op for op in history.ops
        if op.txn_id in included and op.key != MARKS_KEY
    ]
    for i, earlier in enumerate(ops):
        for later in ops[i + 1:]:
            if conflicts(earlier, later):
                sg.add_edge(earlier.txn_id, later.txn_id)
    return sg


def global_sg_from_scan(history: GlobalHistory) -> GlobalSG:
    """:func:`sg_from_scan` at every site."""
    return GlobalSG(locals={
        site_id: sg_from_scan(site_history)
        for site_id, site_history in history.sites.items()
    })


def verify_conflict_index(history: GlobalHistory) -> None:
    """Raise :class:`HistoryError` naming the first site whose
    index-backed SG differs from the scan."""
    for site_id, site_history in sorted(history.sites.items()):
        fast = SG.from_history(site_history)
        slow = sg_from_scan(site_history)
        if fast.nodes != slow.nodes or fast.edges() != slow.edges():
            raise HistoryError(
                f"conflict index diverged from pairwise scan at {site_id}: "
                f"index edges={fast.edges()} vs scan edges={slow.edges()}"
            )
