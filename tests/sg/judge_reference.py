"""The end-of-run judge over the full history: the reference for the
forgetting judge (:class:`repro.sg.judge.HistoryJudge`).

:func:`record` taps a system's site histories before it runs: every
operation and termination is recorded again into a history no judge
prunes.  :func:`verdicts` judges a history with every criterion the
oracles apply, so a pruned and a full history can be compared.
"""

from repro.sg.atomicity import (
    check_atomicity_of_compensation,
    compensation_writes_cover,
)
from repro.sg.cycles import find_local_cycle, find_regular_cycle
from repro.sg.graph import GlobalSG, TxnKind
from repro.sg.history import GlobalHistory

#: the recording methods of a SiteHistory
RECORDING = ("read", "write", "commit", "abort", "expunge")


def record(system) -> GlobalHistory:
    """The full history of ``system`` from now on (call it before the
    run): each site history's recording calls are made on a twin too."""
    full = GlobalHistory()
    for site_id, site in system.sites.items():
        live, twin = site.history, full.site(site_id)
        for name in RECORDING:
            def both(*args, _live=getattr(live, name),
                     _twin=getattr(twin, name)):
                result = _live(*args)
                _twin(*args)
                return result

            setattr(live, name, both)
    return full


def verdicts(system, history: GlobalHistory) -> dict:
    """Every verdict the oracles derive from ``history``."""
    gsg = GlobalSG.from_history(history)
    aborted = {o.txn_id for o in system.outcomes if not o.committed}
    effective = gsg.nodes_of_kind(TxnKind.GLOBAL) - aborted
    return {
        "local": find_local_cycle(gsg),
        "strict": find_regular_cycle(gsg),
        "effective": find_regular_cycle(gsg, effective),
        "atomicity": check_atomicity_of_compensation(history).violations,
        "cover": sorted(
            o.txn_id for o in system.outcomes
            if not o.committed and o.compensated_sites
            and not compensation_writes_cover(history, o.txn_id)
        ),
    }
