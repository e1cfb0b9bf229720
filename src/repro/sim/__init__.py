"""Deterministic discrete-event simulation kernel.

A small, simpy-like kernel: an :class:`~repro.sim.engine.Environment` drives a
heap of timestamped events; protocol logic is written as Python generators
that ``yield`` events (:class:`~repro.sim.events.Timeout`,
:class:`~repro.sim.events.Event`, :class:`~repro.sim.events.AllOf`, a timed
:meth:`~repro.sim.store.Store.get`) and are resumed when those events trigger.

Determinism: given a fixed seed for :class:`~repro.sim.rng.Rng` and identical
process creation order, two runs produce identical event orderings.
"""

from repro.sim.engine import Environment
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import Rng
from repro.sim.store import Store

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Rng",
    "Store",
    "Timeout",
]
