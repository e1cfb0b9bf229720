"""Failure injection: site crashes and recoveries on a schedule.

The paper's motivating failure is a *coordinator crash after participants
vote* — under standard 2PC this leaves participants blocked in the prepared
state holding locks until the coordinator recovers (Section 1).  A
coordinator lives in its transaction's first site and dies with it, so
the ``CLAIM-BLOCK`` benchmark drives exactly that schedule by crashing the
coordinating site.

A :class:`FailureInjector` owns the up/down state of every registered site
(and Paxos acceptor), refuses to crash anything else, notifies the
:class:`~repro.net.network.Network` (so in-flight messages are dropped), and
fires registered crash/recovery callbacks so site processes can abort local
work and run recovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.net.network import Network
from repro.sim.engine import Environment


class SiteStatus(enum.Enum):
    """Liveness of a site."""

    UP = "UP"
    DOWN = "DOWN"


@dataclass
class CrashPlan:
    """One scheduled outage of a site: down at ``at``, up at ``at + duration``.

    ``duration`` of ``None`` means the site never recovers within the run —
    the "unbounded delay" case of the paper's introduction.
    """

    site_id: str
    at: float
    duration: float | None = None


@dataclass
class _Outage:
    """Record of an observed outage (for metrics)."""

    site_id: str
    start: float
    end: float | None = None


class FailureInjector:
    """Central up/down registry plus scheduled crash execution."""

    def __init__(self, env: Environment, network: Network) -> None:
        self.env = env
        self.network = network
        self._status: dict[str, SiteStatus] = {}
        self._crash_callbacks: list[Callable[[str], None]] = []
        self._recover_callbacks: list[Callable[[str], None]] = []
        self.outages: list[_Outage] = []
        self._open_outage: dict[str, _Outage] = {}

    # -- registration ---------------------------------------------------------

    def register_site(self, site_id: str) -> None:
        """Track a site; it starts UP."""
        self._status.setdefault(site_id, SiteStatus.UP)

    def on_crash(self, callback: Callable[[str], None]) -> None:
        """Register a callback invoked with the site id at crash time."""
        self._crash_callbacks.append(callback)

    def on_recover(self, callback: Callable[[str], None]) -> None:
        """Register a callback invoked with the site id at recovery time."""
        self._recover_callbacks.append(callback)

    # -- state ---------------------------------------------------------------

    def status(self, site_id: str) -> SiteStatus:
        """Current liveness of ``site_id`` (unregistered sites count as UP)."""
        return self._status.get(site_id, SiteStatus.UP)

    def is_up(self, site_id: str) -> bool:
        """True when the site is currently up."""
        return self.status(site_id) is SiteStatus.UP

    # -- direct control --------------------------------------------------------

    def _known(self, site_id: str) -> None:
        if site_id not in self._status:
            raise ValueError(f"cannot crash unregistered {site_id!r}")

    def crash(self, site_id: str) -> None:
        """Crash ``site_id`` now (idempotent); it must be registered."""
        self._known(site_id)
        if self._status[site_id] is SiteStatus.DOWN:
            return
        self._status[site_id] = SiteStatus.DOWN
        self.network.mark_down(site_id)
        outage = _Outage(site_id=site_id, start=self.env.now)
        self.outages.append(outage)
        self._open_outage[site_id] = outage
        for callback in self._crash_callbacks:
            callback(site_id)

    def recover(self, site_id: str) -> None:
        """Recover ``site_id`` now (idempotent)."""
        if self._status.get(site_id) is not SiteStatus.DOWN:
            return
        self._status[site_id] = SiteStatus.UP
        self.network.mark_up(site_id)
        outage = self._open_outage.pop(site_id, None)
        if outage is not None:
            outage.end = self.env.now
        for callback in self._recover_callbacks:
            callback(site_id)

    # -- scheduling --------------------------------------------------------------

    def schedule(self, plan: CrashPlan) -> None:
        """Install a crash plan executed by a background process; its
        target must be registered."""
        self._known(plan.site_id)
        self.env.process(self._execute(plan), name=f"crashplan:{plan.site_id}")

    def _execute(self, plan: CrashPlan):
        if plan.at > self.env.now:
            yield self.env.timeout(plan.at - self.env.now)
        self.crash(plan.site_id)
        if plan.duration is not None:
            yield self.env.timeout(plan.duration)
            self.recover(plan.site_id)
