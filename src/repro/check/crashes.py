"""Crash-point enumeration: site crashes as choice points.

Enumerating a crash at *every* event would square the search space for no
insight — most instants are equivalent with respect to the commit protocol.
The interesting crash points are exactly the protocol transitions the paper
reasons about: immediately after a site locally commits (the O2PC exposure
window opens), after a vote, around the coordinator's decision, during
compensation, and — with budget for a second crash — the instant another
site crashes (two sites lost together).  The :class:`CrashInjector` therefore listens on the
observability bus and turns each *protocol-significant* event into a crash
choice point, as long as the per-run crash budget is not exhausted.

The injector owns the bus it needs: subscribing turns emission on, also in
the explorer's unrecorded runs, and once the budget is spent it
unsubscribes and turns emission off unless another subscriber (the
system's recorder) still listens, so the rest of the run constructs no
events.

Candidate 0 is always "continue"; candidate ``i > 0`` crashes one currently
up site — with the coordinators it hosts (:mod:`repro.commit.host`): a
transaction's first site is where the paper's motivating failure strikes.
The chosen crash is not
executed inside the bus callback (subscribers must not mutate simulation
state); instead an URGENT, unannotated kernel event is scheduled whose
callback performs the crash before any further message delivery, and a
background process recovers the target after a fixed outage shorter than
the coordinator's decision retransmission window (so every explored run
still terminates).
"""

from __future__ import annotations

from repro.check.scheduler import ChoicePolicy
from repro.harness.system import System
from repro.obs.events import Event as ObsEvent
from repro.sim.events import Event, URGENT

#: bus event kinds that open a crash choice point (protocol transitions)
SIGNIFICANT_KINDS = (
    "subtxn.local_commit",  # O2PC exposure window opens
    "subtxn.prepare",       # 2PC in-doubt window opens
    "txn.vote",             # after a vote, before the decision
    "txn.decision",         # around the decision force-write
    "comp.start",           # mid-compensation
    "site.crash",           # another site died: a second, correlated crash
)


class CrashInjector:
    """Turns protocol-significant events into crash choice points."""

    def __init__(
        self,
        system: System,
        policy: ChoicePolicy,
        budget: int = 1,
        outage: float = 10.0,
    ) -> None:
        self.system = system
        self.policy = policy
        self.remaining = budget
        self.outage = outage
        #: the sites; a coordinator dies with its first site
        self.targets = sorted(system.sites)
        #: audit of injected crashes: (target, significant point label)
        self.injected: list[tuple[str, str]] = []
        if budget > 0:
            system.env.bus.subscribe(self._on_event)
            system.env.bus.enable()

    def _on_event(self, event: ObsEvent) -> None:
        if self.remaining <= 0 or event.kind not in SIGNIFICANT_KINDS:
            return
        failures = self.system.failures
        candidates = [t for t in self.targets if failures.is_up(t)]
        if not candidates:
            return
        point = f"{event.kind}:{getattr(event, 'txn_id', '?')}"
        labels = [f"continue@{point}"] + [
            f"crash:{target}@{point}" for target in candidates
        ]
        chosen = self.policy.choose("crash", labels, range(len(labels)))
        if chosen == 0:
            return
        self.remaining -= 1
        if self.remaining == 0:
            bus = self.system.env.bus
            bus.unsubscribe(self._on_event)
            if not bus.has_subscribers:
                bus.disable()
        target = candidates[chosen - 1]
        self.injected.append((target, point))
        # Deferred execution: crash from a kernel callback, not from inside
        # bus.publish.  URGENT + unannotated means the crash lands before
        # any same-instant message delivery and is never itself reordered.
        trigger = Event(self.system.env)
        trigger.callbacks.append(lambda _evt, t=target: self._crash_now(t))
        self.system.env.schedule(trigger, priority=URGENT)

    def _crash_now(self, target: str) -> None:
        self.system.failures.crash(target)
        if self.outage is not None:
            self.system.env.process(
                self._recover_later(target), name=f"check-recover:{target}"
            )

    def _recover_later(self, target: str):
        yield self.system.env.timeout(self.outage)
        self.system.failures.recover(target)
