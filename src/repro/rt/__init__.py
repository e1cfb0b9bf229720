"""The networked runtime: real per-site daemons over asyncio TCP.

This package is the production transport backend
(``SystemConfig(backend="net")``): it runs the *same*
:class:`~repro.commit.coordinator.Coordinator` and
:class:`~repro.commit.participant.Participant` state machines as the
simulation, but over real sockets, real time, and a file-backed
write-ahead log that survives ``kill -9``.

Pieces:

* :mod:`repro.rt.wire` — length-prefixed JSON framing of
  :class:`~repro.net.message.Message` objects (operations, vote policies,
  and payloads round-trip);
* :mod:`repro.rt.config` — the site-list cluster configuration file;
* :mod:`repro.rt.pump` — drives a discrete-event
  :class:`~repro.sim.engine.Environment` against the asyncio wall clock,
  so generator-based protocol code runs unmodified;
* :mod:`repro.rt.transport` — :class:`TcpTransport`, the asyncio
  implementation of the :class:`~repro.net.transport.Transport` protocol;
* :mod:`repro.rt.daemon` — :class:`SiteDaemon`, one site's Participant,
  and the Coordinators of the transactions submitted to it, as a network
  service with WAL-backed restart recovery;
* :mod:`repro.rt.client` — :class:`NetClient`, which submits transactions
  to their coordinating daemons and awaits their outcomes;
* :mod:`repro.rt.system` — :class:`NetSystem`, the ``backend="net"``
  implementation of the System API.

See ``docs/RUNTIME.md`` for the daemon lifecycle and the recovery
walk-through.
"""

from repro.rt.client import NetClient
from repro.rt.config import ClusterConfig, SiteSpec, load_cluster
from repro.rt.daemon import SiteDaemon
from repro.rt.system import NetSystem
from repro.rt.transport import TcpTransport

__all__ = [
    "ClusterConfig",
    "NetClient",
    "NetSystem",
    "SiteDaemon",
    "SiteSpec",
    "TcpTransport",
    "load_cluster",
]
