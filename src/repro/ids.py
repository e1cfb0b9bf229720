"""Identifier types for transactions, sites, and compensating transactions.

The paper's notation is kept: a global transaction ``T_i`` decomposes into
local subtransactions ``T_ij`` (one per site ``S_j``), and has a compensating
transaction ``CT_i`` composed of compensating subtransactions ``CT_ij``.

Identifiers are plain strings with structured helpers, so they remain cheap to
hash, sort, and print, and histories stay human-readable in test output.
"""

from __future__ import annotations

# Prefixes used to build printable ids.
GLOBAL_PREFIX = "T"
LOCAL_PREFIX = "L"
COMPENSATION_PREFIX = "CT"
SITE_PREFIX = "S"


def global_txn_id(n: int) -> str:
    """Return the id of the *n*-th global transaction, e.g. ``T3``."""
    return f"{GLOBAL_PREFIX}{n}"


def local_txn_id(n: int) -> str:
    """Return the id of the *n*-th independent local transaction, e.g. ``L7``."""
    return f"{LOCAL_PREFIX}{n}"


def site_id(n: int) -> str:
    """Return the id of the *n*-th site, e.g. ``S2``."""
    return f"{SITE_PREFIX}{n}"


def compensation_id(txn_id: str) -> str:
    """Return the id of the compensating transaction for ``txn_id``.

    >>> compensation_id("T3")
    'CT3'
    """
    return f"{COMPENSATION_PREFIX}{txn_id[len(GLOBAL_PREFIX):]}" if txn_id.startswith(
        GLOBAL_PREFIX
    ) else f"{COMPENSATION_PREFIX}({txn_id})"


def is_compensation_id(txn_id: str) -> bool:
    """True if ``txn_id`` names a compensating transaction (``CT...``)."""
    return txn_id.startswith(COMPENSATION_PREFIX)


def compensated_txn_id(ct_id: str) -> str:
    """Inverse of :func:`compensation_id`: the forward transaction's id.

    >>> compensated_txn_id("CT3")
    'T3'
    """
    if not is_compensation_id(ct_id):
        raise ValueError(f"{ct_id!r} is not a compensating-transaction id")
    body = ct_id[len(COMPENSATION_PREFIX):]
    if body.startswith("(") and body.endswith(")"):
        return body[1:-1]
    return f"{GLOBAL_PREFIX}{body}"


def subtransaction_id(txn_id: str, site: str) -> str:
    """Return the id of ``txn_id``'s subtransaction at ``site``.

    >>> subtransaction_id("T1", "S2")
    'T1@S2'
    """
    return f"{txn_id}@{site}"


def split_subtransaction_id(sub_id: str) -> tuple[str, str]:
    """Split a subtransaction id into (transaction id, site id)."""
    txn, _, site = sub_id.rpartition("@")
    if not txn or not site:
        raise ValueError(f"{sub_id!r} is not a subtransaction id")
    return txn, site
