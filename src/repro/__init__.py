"""O2PC: optimistic two-phase commit with compensating transactions.

A complete reproduction of Levy, Korth & Silberschatz, *"An Optimistic
Commit Protocol for Distributed Transaction Management"* (SIGMOD 1991):
the O2PC protocol, compensating transactions, the serialization-graph
correctness criterion (regular cycles, stratification properties), and the
marking protocols P1/P2 — all on top of a from-scratch discrete-event
simulation of a multidatabase system.

Typical entry points:

>>> from repro.harness import System, SystemConfig
>>> from repro.commit import CommitScheme
>>> from repro.txn import GlobalTxnSpec, SubtxnSpec, SemanticOp
>>> system = System(SystemConfig(n_sites=3, scheme=CommitScheme.O2PC,
...                              protocol="P1"))
>>> outcome = system.run_transaction(GlobalTxnSpec(txn_id="T1", subtxns=[
...     SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 5})]),
...     SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 5})]),
... ]))
>>> outcome.committed
True
>>> system.check_correctness()

The blessed public surface is re-exported here: :class:`System` /
:class:`SystemConfig`, the transport abstraction (:class:`Transport`,
``BACKENDS`` — ``SystemConfig(backend="net")`` selects the real TCP
runtime in :mod:`repro.rt`), plus the observability layer
(:mod:`repro.obs`) —
:class:`MetricsReport` from :meth:`System.metrics`, :class:`Span` trees
from :meth:`System.spans`, typed :class:`Event` streams from
:meth:`System.events` (enable with ``SystemConfig(observability=True)``).

See ``README.md`` for the architecture overview, ``DESIGN.md`` for the
system inventory and design decisions, ``EXPERIMENTS.md`` for the
paper-versus-measured record of every reproduced figure and claim, and
``docs/OBSERVABILITY.md`` for the event taxonomy and tooling.
"""

from repro.harness.system import BACKENDS, System, SystemConfig
from repro.net.transport import Transport
from repro.obs import (
    Event,
    EventBus,
    MetricsReport,
    Observability,
    Span,
    build_spans,
    to_jsonl,
)

__version__ = "1.0.0"

__all__ = [
    # blessed objects
    "BACKENDS",
    "Event",
    "EventBus",
    "MetricsReport",
    "Observability",
    "Span",
    "System",
    "SystemConfig",
    "Transport",
    "build_spans",
    "to_jsonl",
    # sub-packages
    "analysis",
    "commit",
    "compensation",
    "core",
    "errors",
    "harness",
    "ids",
    "locking",
    "net",
    "obs",
    "rt",
    "sg",
    "sim",
    "storage",
    "txn",
    "workload",
]
