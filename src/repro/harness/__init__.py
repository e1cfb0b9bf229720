"""Experiment harness: system assembly, metrics, experiment running.

:class:`~repro.harness.system.System` wires a full multidatabase out of the
substrates (simulation kernel, network, sites, participants, marking
protocol) and exposes one-call transaction submission plus the
observability surface (:meth:`System.metrics`, :meth:`System.timeline`,
:meth:`System.events`; see :mod:`repro.obs`).
:mod:`repro.harness.experiment` provides parameter sweeps and table
formatting for the benchmark suite and EXPERIMENTS.md.

``SystemConfig(backend="net")`` selects the networked runtime
(:mod:`repro.rt`) instead of the simulation; build it with
:class:`repro.rt.NetSystem` (the :class:`System` class itself is the
``backend="sim"`` implementation).
"""

from repro.harness.experiment import ExperimentResult, Sweep, format_table
from repro.harness.system import BACKENDS, PROTOCOLS, System, SystemConfig
from repro.obs.metrics import MetricsReport

__all__ = [
    "BACKENDS",
    "ExperimentResult",
    "MetricsReport",
    "PROTOCOLS",
    "Sweep",
    "System",
    "SystemConfig",
    "format_table",
]
