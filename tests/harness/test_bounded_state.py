"""A live site's state is flat in uptime: fuzzy checkpoints truncate its
log, and its per-transaction tables forget what they settled.

The same closed-loop load (four sessions, each submitting its next
transaction when the last one ends, so the concurrency is equal) runs for
200 and for 2 000 transactions.  The peaks of the retained WAL records
per site, the participants' ``subtxns``, the LTM's ``status``, the
marking directory's execution sets, and the judges' state — retained
history operations, SG nodes and edges, marking-audit entries — stay
within a constant factor of each other; only the settled-id tables grow,
one entry per id.
"""

import pytest

from repro.commit.base import CommitScheme
from repro.harness.system import System, SystemConfig
from repro.sg.judge import _scan
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

SESSIONS = 4


def gauges(system):
    sites = system.sites.values()
    directory = system.directory
    # the judge's own graphs: one edge per conflict from a key's last
    # writer and its readers since (the full SG's edges are quadratic in
    # a hot key's retained accessors)
    local_sgs = [_scan(site.history, {})[0] for site in sites]
    pinned = system.judge.pinned
    return {
        "wal records": max(len(site.wal) for site in sites),
        "subtxns": max(len(p.subtxns) for p in system.participants.values()),
        "ltm status": max(len(site.ltm.status) for site in sites),
        "directory sets": (
            len(directory.exec_sites) + len(directory.executed_sites)
        ),
        # the judges' state (repro.sg.judge), but for what it pins: a
        # violation's evidence, kept for good (O2PC without a marking
        # protocol makes regular cycles, one per so many transactions)
        "history ops": max(
            sum(op.txn_id not in pinned for op in site.history.ops)
            for site in sites
        ),
        "sg nodes": max(len(sg.nodes - pinned) for sg in local_sgs),
        "sg edges": max(
            sum(a not in pinned and b not in pinned for a, b in sg.edges())
            for sg in local_sgs
        ),
        "audit entries": max(
            (sum(t[0] not in pinned for t in m.transitions)
             for m in directory.machines.values()),
            default=0,
        ),
    }


def closed_loop(scheme, transactions):
    """Peak gauges over the run, and the settled ids at its end."""
    system = System(SystemConfig(
        n_sites=4, scheme=scheme, keys_per_site=8, seed=3,
    ))
    specs = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=transactions, zipf_theta=0.8,
        abort_probability=0.05,
    ), seed=3).specs()
    peak: dict[str, int] = {}

    def session(mine):
        for spec in mine:
            yield system.submit(spec)
            for name, value in gauges(system).items():
                peak[name] = max(peak.get(name, 0), value)

    system.env.run(system.env.all_of([
        system.env.process(session(specs[i::SESSIONS]))
        for i in range(SESSIONS)
    ]))
    system.env.run()
    assert len(system.outcomes) == transactions
    settled = sum(len(site.wal.settled) for site in system.sites.values())
    return peak, settled


@pytest.mark.parametrize(
    "scheme", sorted(CommitScheme, key=lambda s: s.name), ids=lambda s: s.name,
)
def test_state_is_flat_in_uptime(scheme):
    short, short_settled = closed_loop(scheme, 200)
    long, long_settled = closed_loop(scheme, 2000)
    for name, value in long.items():
        assert value <= 2 * short[name], (
            f"{name}: peak {short[name]} over 200 transactions, "
            f"{value} over 2000"
        )
    assert long_settled > 9 * short_settled
