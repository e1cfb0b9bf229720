"""What a submitted spec costs to keep.

A run keeps every spec it was given (``System.specs``; the WAL's
``UPDATE`` records reference their operations), so a spec's retained
bytes are paid once per transaction for the whole run.  The specs here
are shaped like the benchmark's: 2-3 subtransactions of 1-3 operations
each, half of them reads and the rest ``{"amount": n}`` deposits or
withdrawals.  A spec of one-entry dicts and lists retained ~1 220 bytes
by tracemalloc; compact parameters and tuple containers keep ~820.
"""

import random
import tracemalloc

from repro.txn import GlobalTxnSpec, ReadOp, SemanticOp, SubtxnSpec

SPECS = 1_000

#: retained bytes per spec allowed (dict parameters and lists: ~1 220)
BUDGET = 900


def plan(n: int) -> list[tuple[str, list[tuple[str, list[tuple]]]]]:
    """Seeded spec plans; their strings exist before any spec does."""
    rng = random.Random(47)
    sites = [f"S{i}" for i in range(1, 65)]
    txns = []
    for i in range(1, n + 1):
        subs = []
        for site in sorted(rng.sample(sites, rng.randint(2, 3))):
            ops = []
            for _ in range(rng.randint(1, 3)):
                key = f"k{rng.randrange(32)}"
                if rng.random() < 0.5:
                    ops.append(("read", key, 0))
                else:
                    name = rng.choice(("deposit", "withdraw"))
                    ops.append((name, key, rng.randint(1, 10)))
            subs.append((site, ops))
        txns.append((f"T{i}", subs))
    return txns


def build(txns) -> list[GlobalTxnSpec]:
    def op(name, key, amount):
        if name == "read":
            return ReadOp(key)
        return SemanticOp(name, key, {"amount": amount})

    return [
        GlobalTxnSpec(txn_id, [
            SubtxnSpec(site, [op(*o) for o in ops]) for site, ops in subs
        ])
        for txn_id, subs in txns
    ]


def test_a_kept_spec_costs_what_it_says():
    txns = plan(SPECS)
    build(txns[:10])  # first-call allocations are not the specs'
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        specs = build(txns)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(specs) == SPECS
    per_spec = retained / SPECS
    assert per_spec <= BUDGET, (
        f"spec footprint: {per_spec:.0f} B retained per spec, over the "
        f"{BUDGET} B budget"
    )
