"""Point-to-point links with bandwidth, propagation delay, and loss.

A :class:`Link` joins two endpoints. Each direction is a FIFO server:
a backlog of waiting packets plus a busy flag. It models both
serialization delay (``size_bits / bandwidth``) and propagation delay,
plus optional random drop for failure-injection tests. Service runs on
timeout callbacks, not processes: one timeout per packet for
serialization and one for propagation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..obs import Tracer
from ..sim import Environment
from .packet import Packet


class LinkStats:
    """Per-direction counters."""

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.packets_dropped_down = 0

    def __repr__(self) -> str:
        return (
            f"<LinkStats sent={self.packets_sent} bytes={self.bytes_sent} "
            f"dropped={self.packets_dropped} "
            f"dropped_down={self.packets_dropped_down}>"
        )


class _Direction:
    """One direction of a full-duplex link."""

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float,
        propagation_delay: float,
        deliver: Callable[[Packet], None],
        drop_probability: float,
        rng,
    ) -> None:
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.deliver = deliver
        self.drop_probability = drop_probability
        self.rng = rng
        self.up = True
        #: Packets waiting behind the one being serialized.
        self.backlog: deque = deque()
        self.busy = False
        self.stats = LinkStats()
        #: Enqueue timestamps for traced packets only, so the hop span
        #: covers queueing + serialization + propagation.
        self._enqueue_ts = {}

    def send(self, packet: Packet) -> None:
        """Queue ``packet``; serve it at once when the wire is idle."""
        if self.env.tracer is not None and Tracer.context(packet)[0]:
            self._enqueue_ts[id(packet)] = self.env.now
        self.backlog.append(packet)
        if not self.busy:
            self._serve()

    def _trace_hop(self, packet: Packet, enqueued_at,
                   dropped: Optional[str] = None) -> None:
        tracer = self.env.tracer
        if tracer is None or enqueued_at is None:
            return
        trace_id, parent = Tracer.context(packet)
        if not trace_id:
            return
        tags = {"bytes": packet.size_bytes}
        if dropped is not None:
            tags["dropped"] = dropped
        tracer.end(tracer.begin(
            "net.link", "net", trace_id=trace_id, parent=parent,
            node=self.name, start=enqueued_at, tags=tags,
        ))

    def _serve(self, _event=None) -> None:
        """Put the head-of-line packet on the wire, or drop it.

        A drop keeps the wire busy until a zero-delay timeout serves the
        next packet, rather than serving it in the same call. A burst
        of drops on one link then interleaves with the up checks and
        loss rolls of other links at the same instant in kernel event
        order, which matters when links share one rng.
        """
        backlog = self.backlog
        if not backlog:
            self.busy = False
            return
        self.busy = True
        packet = backlog.popleft()
        if self.up and not (self.drop_probability > 0
                            and self.rng is not None
                            and self.rng.random() < self.drop_probability):
            self.env.timeout(packet.size_bits / self.bandwidth_bps,
                             packet).callbacks.append(self._serializer)
            return
        enqueued_at = (self._enqueue_ts.pop(id(packet), None)
                       if self._enqueue_ts else None)
        self.stats.packets_dropped += 1
        if self.up:
            self._trace_hop(packet, enqueued_at, dropped="loss")
        else:
            self.stats.packets_dropped_down += 1
            self._trace_hop(packet, enqueued_at, dropped="link_down")
        self.env.timeout(0).callbacks.append(self._serve)

    def _serializer(self, event) -> None:
        """The last bit is on the wire: propagate it, serve the next."""
        packet = event._value
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.size_bytes
        self.env.timeout(self.propagation_delay,
                         packet).callbacks.append(self._propagate)
        self._serve()

    def _propagate(self, event) -> None:
        """The packet reached the far end: stamp and deliver it."""
        packet = event._value
        enqueued_at = (self._enqueue_ts.pop(id(packet), None)
                       if self._enqueue_ts else None)
        packet.stamp(self.name, self.env.now)
        self._trace_hop(packet, enqueued_at)
        self.deliver(packet)


class Link:
    """A full-duplex link between endpoints ``a`` and ``b``.

    ``deliver_a`` / ``deliver_b`` are callables invoked when a packet
    arrives at the respective endpoint.
    """

    def __init__(
        self,
        env: Environment,
        a: str,
        b: str,
        bandwidth_bps: float = 10e9,
        propagation_delay: float = 500e-9,
        drop_probability: float = 0.0,
        rng=None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        if drop_probability > 0 and rng is None:
            raise ValueError("a drop probability requires an rng")
        self.env = env
        self.a = a
        self.b = b
        self._deliver_a: Optional[Callable[[Packet], None]] = None
        self._deliver_b: Optional[Callable[[Packet], None]] = None
        self._ab = _Direction(
            env, f"{a}->{b}", bandwidth_bps, propagation_delay,
            self._to_b, drop_probability, rng,
        )
        self._ba = _Direction(
            env, f"{b}->{a}", bandwidth_bps, propagation_delay,
            self._to_a, drop_probability, rng,
        )

    @property
    def up(self) -> bool:
        """True when both directions carry traffic."""
        return self._ab.up and self._ba.up

    def set_state(self, up: bool) -> None:
        """Bring the whole link up or down (both directions).

        While down, queued and newly enqueued packets are dropped the
        instant they reach the head of the line; no traffic crosses in
        either direction until the link is brought back up.
        """
        self._ab.up = up
        self._ba.up = up

    def attach(self, endpoint: str, deliver: Callable[[Packet], None]) -> None:
        """Register the receive callback for one endpoint."""
        if endpoint == self.a:
            self._deliver_a = deliver
        elif endpoint == self.b:
            self._deliver_b = deliver
        else:
            raise ValueError(f"{endpoint!r} is not an endpoint of this link")

    def send(self, from_endpoint: str, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission from ``from_endpoint``."""
        if from_endpoint == self.a:
            self._ab.send(packet)
        elif from_endpoint == self.b:
            self._ba.send(packet)
        else:
            raise ValueError(f"{from_endpoint!r} is not an endpoint of this link")

    def stats(self, from_endpoint: str) -> LinkStats:
        """Transmit-direction counters for ``from_endpoint``."""
        if from_endpoint == self.a:
            return self._ab.stats
        if from_endpoint == self.b:
            return self._ba.stats
        raise ValueError(f"{from_endpoint!r} is not an endpoint of this link")

    def _to_a(self, packet: Packet) -> None:
        if self._deliver_a is None:
            raise RuntimeError(f"no receiver attached at {self.a!r}")
        self._deliver_a(packet)

    def _to_b(self, packet: Packet) -> None:
        if self._deliver_b is None:
            raise RuntimeError(f"no receiver attached at {self.b!r}")
        self._deliver_b(packet)
