"""Compensating transactions (Sections 3.2 and 4).

* :mod:`repro.compensation.actions` — the semantic-operation registry for the
  restricted model: each operation knows how to apply itself and how to build
  its inverse (``deposit`` ↔ ``withdraw``, ``insert`` ↔ ``delete`` ...).
* :mod:`repro.compensation.executor` — builds and runs compensating
  subtransactions: semantic inverses in the restricted model, before-image
  restoration in the generic model; executed as ordinary local transactions
  under local strict 2PL, with *persistence of compensation* (retry until
  commit — an initiated compensation must complete).
"""

from repro.compensation.actions import (
    ActionRegistry,
    SemanticAction,
    standard_registry,
)
from repro.compensation.executor import CompensationExecutor

__all__ = [
    "ActionRegistry",
    "CompensationExecutor",
    "SemanticAction",
    "standard_registry",
]
