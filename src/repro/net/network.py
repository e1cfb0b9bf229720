"""The simulated network connecting sites.

Each registered endpoint gets an inbox (:class:`~repro.sim.store.Store`).
``send`` first enforces force-before-send: a message the covering table
(:data:`~repro.net.message.COVERING`) names must carry a durable record of
a covering kind, or :class:`~repro.errors.ProtocolViolation` is raised.  It
then stamps the message, applies the latency model, may drop it (loss
probability or recipient down), and schedules delivery.  All delivered and
dropped messages are counted per type — the ``CLAIM-MSG`` benchmark reads
these counters to verify O2PC adds no messages over standard 2PC.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import UnknownSiteError
from repro.net.message import COVERING, Message, MsgType
from repro.obs.events import MessageDelivered, MessageDropped, MessageSent
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.rng import Rng
from repro.sim.store import Store


@dataclass
class LatencyModel:
    """Per-message latency: ``base`` plus uniform jitter in [0, jitter]."""

    base: float = 1.0
    jitter: float = 0.0

    def draw(self, rng: Rng) -> float:
        """Sample one message latency."""
        if self.jitter <= 0:
            return self.base
        return self.base + rng.uniform(0.0, self.jitter)


@dataclass
class ExponentialLatency(LatencyModel):
    """Heavy-tailed latency: ``base`` plus an exponential tail.

    A WAN-ish model: most messages arrive near ``base``, a few straggle.
    ``jitter`` is reused as the tail's mean, so the model plugs in anywhere
    a :class:`LatencyModel` is accepted.
    """

    def draw(self, rng: Rng) -> float:
        """Sample one message latency with an exponential tail."""
        if self.jitter <= 0:
            return self.base
        return self.base + rng.exponential(self.jitter)


class Network:
    """Point-to-point message network with latency, loss, and failure hooks."""

    def __init__(
        self,
        env: Environment,
        rng: Rng | None = None,
        latency: LatencyModel | None = None,
        loss_probability: float = 0.0,
    ) -> None:
        self.env = env
        self.rng = rng or Rng(0)
        self.latency = latency or LatencyModel()
        self.loss_probability = loss_probability
        self._inboxes: dict[str, Store] = {}
        #: every endpoint ever registered: the valid recipients
        self._known: set[str] = set()
        #: per-link latency overrides keyed by (sender, recipient)
        self._link_latency: dict[tuple[str, str], LatencyModel] = {}
        #: endpoints currently considered crashed (set by FailureInjector)
        self._down: set[str] = set()
        #: severed directed links (messages on them are dropped)
        self._severed: set[tuple[str, str]] = set()
        #: open delivery batch: (arrival_time, schedule watermark,
        #: messages, arrival event) — see ``send``
        self._batch: tuple[float, int, list[Message], Event] | None = None
        # -- counters read by the metrics layer --
        self.sent: Counter[MsgType] = Counter()
        self.delivered: Counter[MsgType] = Counter()
        self.dropped: Counter[MsgType] = Counter()

    # -- registration -------------------------------------------------------

    def register(self, endpoint_id: str) -> Store:
        """Create (or return) the inbox for ``endpoint_id``."""
        if endpoint_id not in self._inboxes:
            self._inboxes[endpoint_id] = Store(self.env, name=f"inbox:{endpoint_id}")
            self._known.add(endpoint_id)
        return self._inboxes[endpoint_id]

    def unregister(self, endpoint_id: str) -> None:
        """Drop a finished endpoint's inbox (a completed coordinator).

        Late messages for it (votes, acceptor replies, ACKs) are still sent,
        counted and published as delivered — then discarded, so traces do
        not depend on when it retired.  Registering again gives a fresh inbox.
        """
        self._inboxes.pop(endpoint_id, None)

    def inbox(self, endpoint_id: str) -> Store:
        """The inbox of a registered endpoint."""
        try:
            return self._inboxes[endpoint_id]
        except KeyError:
            raise UnknownSiteError(f"endpoint {endpoint_id!r} not registered") from None

    @property
    def endpoints(self) -> list[str]:
        """All registered endpoint ids."""
        return list(self._inboxes)

    def set_link_latency(
        self, sender: str, recipient: str, latency: LatencyModel
    ) -> None:
        """Override the latency model for one directed link."""
        self._link_latency[(sender, recipient)] = latency

    # -- failure hooks (driven by FailureInjector) ----------------------------

    def mark_down(self, endpoint_id: str) -> None:
        """Mark an endpoint crashed; in-queue messages for it are dropped."""
        self._down.add(endpoint_id)
        if endpoint_id in self._inboxes:
            for msg in self._inboxes[endpoint_id].clear():
                if isinstance(msg, Message):
                    self._drop(msg, "recipient_down")

    def mark_up(self, endpoint_id: str) -> None:
        """Mark a crashed endpoint recovered."""
        self._down.discard(endpoint_id)

    def is_down(self, endpoint_id: str) -> bool:
        """True if the endpoint is currently crashed."""
        return endpoint_id in self._down

    # -- partitions -----------------------------------------------------------

    def sever(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Cut the link between two endpoints: messages on it are dropped.

        Link failures are the other half of the paper's failure model ("it
        is impossible to have a non-blocking commit protocol that is immune
        to both site and link failures").
        """
        self._severed.add((a, b))
        if bidirectional:
            self._severed.add((b, a))

    def heal(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Restore a severed link."""
        self._severed.discard((a, b))
        if bidirectional:
            self._severed.discard((b, a))

    def partition(self, group_a: list[str], group_b: list[str]) -> None:
        """Sever every link between two groups of endpoints."""
        for a in group_a:
            for b in group_b:
                self.sever(a, b)

    def heal_partition(self, group_a: list[str], group_b: list[str]) -> None:
        """Heal every link between two groups of endpoints."""
        for a in group_a:
            for b in group_b:
                self.heal(a, b)

    def is_severed(self, a: str, b: str) -> bool:
        """True if the directed link ``a -> b`` is currently cut."""
        return (a, b) in self._severed

    # -- sending -------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send ``message``; delivery is scheduled after a latency draw.

        Messages sent *by* a down endpoint, *to* a down endpoint, over a
        severed link (both checked again at delivery time, so a message can
        also race a crash or a link cut), or hit by the loss probability
        are counted as dropped.  A message that reveals an outcome its
        covering record does not yet make durable raises
        :class:`~repro.errors.ProtocolViolation`.
        """
        if message.recipient not in self._known:
            raise UnknownSiteError(
                f"recipient {message.recipient!r} not registered"
            )
        covering = COVERING.get(message.msg_type)
        if covering is not None:
            covering.check(message)
        message.send_time = self.env.now
        self.sent[message.msg_type] += 1
        bus = self.env.bus
        if bus.enabled:
            bus.publish(MessageSent(
                msg_type=message.msg_type.value, sender=message.sender,
                recipient=message.recipient, txn_id=message.txn_id,
            ))

        if self.is_down(message.sender):
            self._drop(message, "sender_down")
            return
        if self.is_severed(message.sender, message.recipient):
            self._drop(message, "severed")
            return
        if self.loss_probability and self.rng.chance(self.loss_probability):
            self._drop(message, "loss")
            return

        model = self._link_latency.get(
            (message.sender, message.recipient), self.latency
        )
        delay = model.draw(self.rng)
        env = self.env
        if not env.annotate_deliveries:
            # Batched delivery: broadcasts under a constant-latency model
            # (the default) produce back-to-back sends that share an arrival
            # time.  Piggyback on the open batch's single arrival timeout
            # when (a) the arrival times match, (b) nothing has been
            # scheduled since that timeout (``schedule_count`` is the
            # kernel's monotonic schedule counter, so equality proves no
            # event's seq would order between the per-message arrivals this
            # batch replaces), and (c) the batch has not fired yet.
            # Per-message down/severed re-checks still run at delivery.
            arrival_time = env.now + delay
            batch = self._batch
            if (
                batch is not None
                and batch[0] == arrival_time
                and batch[1] == env.schedule_count
                and not batch[3].processed
            ):
                batch[2].append(message)
                return
            arrival = env.timeout(delay)
            messages = [message]
            self._batch = (
                arrival_time, env.schedule_count, messages, arrival
            )
            arrival.callbacks.append(
                lambda _evt, batch=messages: self._deliver_batch(batch)
            )
            return
        # Under a controlled scheduler each delivery is its own bare
        # annotated timeout (never batched): the annotation identifies it
        # as a reorderable occurrence, which is what the model checker's
        # controlled scheduler branches on.
        arrival = self.env.timeout(delay)
        arrival.annotation = (
            "net.deliver",
            message.recipient,
            f"{message.msg_type.value}:{message.sender}"
            f"->{message.recipient}:{message.txn_id}",
        )
        arrival.callbacks.append(
            lambda _evt, m=message: self._finish_delivery(m)
        )

    def _deliver_batch(self, messages: list[Message]) -> None:
        for message in messages:
            self._finish_delivery(message)

    def _finish_delivery(self, message: Message) -> None:
        if self.is_down(message.recipient):
            self._drop(message, "recipient_down")
            return
        if self.is_severed(message.sender, message.recipient):
            # The link was cut while the message was in flight: it is lost
            # exactly like one racing a recipient crash.
            self._drop(message, "severed_in_flight")
            return
        message.deliver_time = self.env.now
        if message.recipient in self._inboxes:
            self._inboxes[message.recipient].put(message)
        self.delivered[message.msg_type] += 1
        bus = self.env.bus
        if bus.enabled:
            bus.publish(MessageDelivered(
                msg_type=message.msg_type.value, sender=message.sender,
                recipient=message.recipient, txn_id=message.txn_id,
                latency=self.env.now - message.send_time,
            ))

    def _drop(self, message: Message, reason: str) -> None:
        """Count (and report) one dropped message."""
        self.dropped[message.msg_type] += 1
        bus = self.env.bus
        if bus.enabled:
            bus.publish(MessageDropped(
                msg_type=message.msg_type.value, sender=message.sender,
                recipient=message.recipient, txn_id=message.txn_id,
                reason=reason,
            ))

    def receive(self, endpoint_id: str) -> Event:
        """Event yielding the next message for ``endpoint_id``."""
        return self.inbox(endpoint_id).get()

    # -- accounting ------------------------------------------------------------

    def total_sent(self) -> int:
        """Total messages handed to the network."""
        return sum(self.sent.values())

    def counts_by_type(self) -> dict[str, int]:
        """Sent-message counts keyed by message-type name."""
        return {t.value: n for t, n in sorted(self.sent.items(), key=lambda kv: kv[0].value)}
