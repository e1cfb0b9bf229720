"""Domain scenarios from the paper's motivation.

* :func:`banking_transfers` — inter-bank funds transfers (the classic
  deposit/withdraw pair whose compensation is the opposite pair);
* :func:`travel_reservations` — the multidatabase setting of the
  introduction: competing computerized reservation agencies booking seats
  and rooms across autonomous sites, where blocking a competitor's
  resources is unacceptable;
* :func:`inventory_orders` — order processing decrementing warehouse stock
  with a payment leg.

Each builder returns a list of :class:`GlobalTxnSpec` against a system's
sites; they use the restricted model (registered semantic operations), so
every subtransaction has a predeclared counter-task.
"""

from __future__ import annotations

from repro.sim.rng import Rng
from repro.txn.operations import SemanticOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, VotePolicy


def standard_scenarios(
    site_ids: list[str] | None = None,
) -> dict[str, list[GlobalTxnSpec]]:
    """Every declarative domain workload, keyed by name.

    The default builds of the three scenario families against a canonical
    three-site system — a convenient way to iterate all of them in tests
    and experiments.  ``tests/workload/test_generator.py`` pins that every
    operation outside a lock-holding (``real_action``) subtransaction has
    a registered inverse (Sections 2 and 3.2).
    """
    sites = site_ids if site_ids is not None else ["S1", "S2", "S3"]
    return {
        "banking": banking_transfers(sites),
        "travel": travel_reservations(sites),
        "inventory": inventory_orders(sites),
    }


def banking_transfers(
    site_ids: list[str],
    n_transfers: int = 20,
    accounts_per_site: int = 20,
    amount_range: tuple[int, int] = (1, 50),
    abort_probability: float = 0.0,
    seed: int = 7,
    id_prefix: str = "T",
) -> list[GlobalTxnSpec]:
    """Funds transfers between accounts at two different banks (sites)."""
    rng = Rng(seed)
    specs = []
    for i in range(1, n_transfers + 1):
        src, dst = rng.sample(site_ids, 2)
        amount = rng.randint(*amount_range)
        account_out = f"k{rng.randint(0, accounts_per_site - 1)}"
        account_in = f"k{rng.randint(0, accounts_per_site - 1)}"
        subtxns = [
            SubtxnSpec(src, [SemanticOp("withdraw", account_out, {"amount": amount})]),
            SubtxnSpec(dst, [SemanticOp("deposit", account_in, {"amount": amount})]),
        ]
        if abort_probability and rng.chance(abort_probability):
            subtxns[rng.randint(0, 1)].vote = VotePolicy.FORCE_NO
        subtxns.sort(key=lambda sub: sub.site_id)
        specs.append(GlobalTxnSpec(txn_id=f"{id_prefix}{i}", subtxns=subtxns))
    return specs


def travel_reservations(
    site_ids: list[str],
    n_trips: int = 20,
    resources_per_site: int = 20,
    abort_probability: float = 0.1,
    seed: int = 11,
    id_prefix: str = "T",
) -> list[GlobalTxnSpec]:
    """Multi-leg trips: reserve a seat/room at each agency's site.

    Cancellations (the ``reserve`` → ``cancel`` inverse) are routine in
    this domain, which is why the paper's compensation approach fits it —
    and why abort injection defaults to a visible rate here.
    """
    rng = Rng(seed)
    specs = []
    for i in range(1, n_trips + 1):
        n_legs = rng.randint(2, min(3, len(site_ids)))
        legs = rng.sample(site_ids, n_legs)
        subtxns = []
        for leg_site in legs:
            resource = f"k{rng.randint(0, resources_per_site - 1)}"
            count = rng.randint(1, 4)
            subtxns.append(SubtxnSpec(
                leg_site,
                [SemanticOp("reserve", resource, {"count": count})],
            ))
        if abort_probability and rng.chance(abort_probability):
            subtxns[rng.randint(0, len(subtxns) - 1)].vote = VotePolicy.FORCE_NO
        subtxns.sort(key=lambda sub: sub.site_id)
        specs.append(GlobalTxnSpec(txn_id=f"{id_prefix}{i}", subtxns=subtxns))
    return specs


def inventory_orders(
    site_ids: list[str],
    n_orders: int = 20,
    items_per_site: int = 20,
    abort_probability: float = 0.05,
    seed: int = 13,
    id_prefix: str = "T",
) -> list[GlobalTxnSpec]:
    """Orders: decrement stock at a warehouse site, charge at a payment
    site, record the order at a third."""
    rng = Rng(seed)
    specs = []
    for i in range(1, n_orders + 1):
        warehouse, payment = rng.sample(site_ids, 2)
        item = f"k{rng.randint(0, items_per_site - 1)}"
        price = rng.randint(5, 60)
        subtxns = [
            SubtxnSpec(warehouse, [
                SemanticOp("withdraw", item, {"amount": 1}),
            ]),
            SubtxnSpec(payment, [
                SemanticOp("deposit", f"k{rng.randint(0, items_per_site - 1)}",
                           {"amount": price}),
            ]),
        ]
        if abort_probability and rng.chance(abort_probability):
            subtxns[rng.randint(0, 1)].vote = VotePolicy.FORCE_NO
        subtxns.sort(key=lambda sub: sub.site_id)
        specs.append(GlobalTxnSpec(txn_id=f"{id_prefix}{i}", subtxns=subtxns))
    return specs
