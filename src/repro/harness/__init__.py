"""Experiment harness: system assembly, metrics, result tables.

:class:`~repro.harness.system.System` wires a full multidatabase out of the
substrates (simulation kernel, network, sites, participants, marking
protocol) and exposes one-call transaction submission plus the
observability surface (:meth:`System.metrics`, :meth:`System.timeline`,
:meth:`System.events`; see :mod:`repro.obs`).
:mod:`repro.harness.experiment` formats result rows as the tables printed
by ``tests/claims/`` and ``repro compare``, and recorded in EXPERIMENTS.md.

``SystemConfig(backend="net")`` selects the networked runtime
(:mod:`repro.rt`) instead of the simulation; build it with
:class:`repro.rt.NetSystem` (the :class:`System` class itself is the
``backend="sim"`` implementation).
"""

from repro.harness.experiment import ExperimentResult, format_table
from repro.harness.system import BACKENDS, PROTOCOLS, System, SystemConfig
from repro.obs.metrics import MetricsReport

__all__ = [
    "BACKENDS",
    "ExperimentResult",
    "MetricsReport",
    "PROTOCOLS",
    "System",
    "SystemConfig",
    "format_table",
]
