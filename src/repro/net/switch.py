"""A store-and-forward Ethernet switch (the testbed's Arista DCS-7124S).

The switch receives packets from attached links into one FIFO
pipeline, charges a fixed switching latency per packet, looks up the
egress port by destination node name, and forwards onto that port's
link. Like a link direction, the pipeline is a backlog plus a busy
flag served by one timeout per packet, not a process.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional

from ..obs import Tracer
from ..sim import Environment
from .link import Link
from .packet import Packet


class SwitchStats:
    def __init__(self) -> None:
        self.packets_forwarded = 0
        self.packets_flooded = 0
        self.packets_dropped_unknown = 0
        self.packets_dropped_partition = 0


class Switch:
    """A named switch that forwards each packet to its destination's port."""

    def __init__(
        self,
        env: Environment,
        name: str = "switch",
        switching_latency: float = 800e-9,
    ) -> None:
        self.env = env
        self.name = name
        self.switching_latency = switching_latency
        self._links: Dict[str, Link] = {}  # peer node -> link
        #: Packets waiting behind the one in the switching pipeline.
        self._backlog: deque = deque()
        self._busy = False
        #: Node -> partition-group index; None means no active partition.
        self._partition: Optional[Dict[str, int]] = None
        #: Pipeline-entry timestamps for traced packets only.
        self._entry_ts: Dict[int, float] = {}
        self.stats = SwitchStats()

    def attach_link(self, link: Link, peer: str) -> None:
        """Attach a link whose far endpoint is node ``peer``."""
        self._links[peer] = link
        link.attach(self.name, self._receive)

    @property
    def ports(self) -> list:
        return sorted(self._links)

    # -- partitions ------------------------------------------------------

    def set_partition(self, *groups: Iterable[str]) -> None:
        """Split the fabric: packets between distinct groups are dropped.

        Each argument is an iterable of node names forming one side of
        the partition; nodes not named in any group default to the
        first group, so callers only need to enumerate the minority
        side(s).
        """
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                mapping[name] = index
        self._partition = mapping

    def heal_partition(self) -> None:
        """Remove any active partition; full connectivity resumes."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def _crosses_partition(self, src: str, dst: str) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(src, 0) != self._partition.get(dst, 0)

    def _receive(self, packet: Packet) -> None:
        if self.env.tracer is not None and Tracer.context(packet)[0]:
            self._entry_ts[id(packet)] = self.env.now
        self._backlog.append(packet)
        if not self._busy:
            self._serve()

    def _serve(self) -> None:
        """Start the switching latency of the head-of-line packet."""
        if self._backlog:
            self._busy = True
            self.env.timeout(self.switching_latency, self._backlog.popleft()
                             ).callbacks.append(self._forwarder)
        else:
            self._busy = False

    def _trace_hop(self, packet: Packet, entered_at,
                   verdict: str) -> None:
        tracer = self.env.tracer
        if tracer is None or entered_at is None:
            return
        trace_id, parent = Tracer.context(packet)
        if not trace_id:
            return
        tracer.end(tracer.begin(
            "net.switch", "net", trace_id=trace_id, parent=parent,
            node=self.name, start=entered_at,
            tags={"verdict": verdict, "dst": packet.dst},
        ))

    def _forwarder(self, event) -> None:
        """The switching latency is over: forward, then serve the next."""
        packet = event._value
        entered_at = (self._entry_ts.pop(id(packet), None)
                      if self._entry_ts else None)
        link = self._links.get(packet.dst)
        if link is None:
            self.stats.packets_dropped_unknown += 1
            self._trace_hop(packet, entered_at, "dropped_unknown")
        elif self._crosses_partition(packet.src, packet.dst):
            self.stats.packets_dropped_partition += 1
            self._trace_hop(packet, entered_at, "dropped_partition")
        else:
            packet.stamp(self.name, self.env.now)
            self.stats.packets_forwarded += 1
            self._trace_hop(packet, entered_at, "forwarded")
            link.send(self.name, packet)
        self._serve()
