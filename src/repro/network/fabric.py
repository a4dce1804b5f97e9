"""A routed, topology-aware network fabric.

The fabric is an injection front-end over a :class:`~repro.network.
topology.Topology`: every directed physical channel of the topology is
one shared, contended :class:`~repro.sim.link.Link` (Table III wire: 200
ns head latency plus serialization at the channel's bandwidth), and a
packet walks its deterministic minimal route hop by hop, store-and-
forward -- it fully serializes onto each channel in turn, queueing
behind whatever that channel is already carrying.

The default ``crossbar`` preset dedicates one channel per (src, dst)
pair and routes in a single hop, which reproduces the historical
"one wire per pair" fabric bit for bit (pinned by the benchmark
baseline).  The routed presets (``ring`` / ``mesh2d`` / ``torus3d``)
share channels between pairs, so many-rank workloads finally see link
contention and multi-hop distance.

Ordering: routes are fixed per (src, dst) pair and each channel is FIFO
under constant head latency, so packets between a given pair are
delivered in injection order on *every* preset -- the network guarantee
MPI's "messages arrive in send order" semantics build on (pinned by
property test across presets).

Faults: the optional :class:`FaultModel` is consulted once per hop --
per link, not per packet -- so a longer route faces proportionally more
exposure, exactly like a real multi-hop fabric.  On the single-hop
crossbar this degenerates to the historical one-judgement-per-packet
behaviour, keeping seeded fault runs bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.faults import CORRUPT, DELAY, DELIVER, DROP, DUPLICATE, FaultModel
from repro.network.packet import Packet
from repro.network.topology import Topology, TopologyConfig
from repro.proc.params import NETWORK_WIRE_LATENCY_PS
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.fifo import Fifo
from repro.sim.link import Link


@dataclasses.dataclass(frozen=True)
class FabricConfig:
    """Latency/bandwidth of the interconnect, and its shape."""

    wire_latency_ps: int = NETWORK_WIRE_LATENCY_PS
    #: per-channel bandwidth; 0.002 bytes/ps = 2 GB/s (Red Storm class)
    bandwidth_bytes_per_ps: float = 0.002
    #: which channels exist and how packets route over them
    topology: TopologyConfig = dataclasses.field(default_factory=TopologyConfig)

    def __post_init__(self) -> None:
        if self.wire_latency_ps < 0:
            raise ValueError(
                f"wire_latency_ps must be >= 0, got {self.wire_latency_ps}"
            )
        if self.bandwidth_bytes_per_ps <= 0:
            raise ValueError(
                "bandwidth_bytes_per_ps must be > 0, got "
                f"{self.bandwidth_bytes_per_ps}"
            )

    @staticmethod
    def with_topology(preset: Optional[str]) -> "FabricConfig":
        """Default wire parameters over ``preset`` (None = crossbar)."""
        if preset is None:
            return FabricConfig()
        return FabricConfig(topology=TopologyConfig(preset=preset))


class Fabric(Component):
    """N nodes, routed channels, per-source-pair ordered delivery."""

    def __init__(
        self,
        engine: Engine,
        num_nodes: int,
        config: Optional[FabricConfig] = None,
        name: str = "fabric",
        faults: Optional[FaultModel] = None,
        observe_hops: bool = False,
    ) -> None:
        super().__init__(engine, name)
        if num_nodes <= 0:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.config = config = config if config is not None else FabricConfig()
        self.num_nodes = num_nodes
        self.topology = Topology.build(config.topology, num_nodes)
        #: optional fault oracle, consulted once per hop; when None (or
        #: idle) every hop is the historical single-send path, bit-for-bit
        self.faults = faults
        #: fabric observability: when True (and a recorder is attached)
        #: every hop decomposes into ``hop_wait`` / ``hop_serialize`` /
        #: ``hop_transit`` records whose residencies telescope exactly
        #: over the former ``wire`` stage.
        #: Off by default so the pinned attribution tables keep their
        #: historical single-``wire`` shape.
        self.observe_hops = observe_hops
        #: one receive FIFO per node; the NIC's Rx side drains it
        self.rx_fifos: List[Fifo] = [
            Fifo(name=f"{name}.rx{i}") for i in range(num_nodes)
        ]
        #: per-destination delivery callbacks (NICs hook header replication
        #: to the ALPU and their wakeup kick here)
        self._rx_callbacks: List[List] = [[] for _ in range(num_nodes)]
        #: per-node bound receivers (see :meth:`bind_receiver`); None is
        #: the default: push into the rx FIFO, then run the callbacks
        self._receivers: List[Optional[Callable[[Packet], None]]] = [None] * num_nodes

        # one shared Link per directed physical channel of the topology;
        # the channel's receiving node either delivers (final hop) or
        # forwards (store-and-forward onto the next channel)
        self._links: Dict[Tuple[int, int], Link] = {}
        for src, dst in self.topology.channels:
            self._links[(src, dst)] = Link(
                engine,
                f"{name}.wire{src}->{dst}",
                dest=None,
                latency_ps=config.wire_latency_ps,
                bandwidth_bytes_per_ps=config.bandwidth_bytes_per_ps,
                on_deliver=functools.partial(self._on_hop, dst),
            )
        #: ``[node][dst]`` -> the first channel of the route from
        #: ``node``, for injection and store-and-forward alike
        hop = self.topology.next_hop
        nodes = range(num_nodes)
        self._first_link: List[List[Link]] = [
            [self._links[(node, hop(node, dst))] for dst in nodes] for node in nodes
        ]
        #: ``[src][dst]`` -> packets injected for that pair (the snapshot's
        #: per-pair traffic matrix)
        self._pair_packets: List[List[int]] = [[0] * num_nodes for _ in nodes]
        #: packets handed to :meth:`inject` (dropped ones included; a
        #: duplicated packet counts once -- it was injected once)
        self.packets_injected = 0
        #: packets handed to their destination node's receiver (duplicates
        #: count per landing; dropped packets never count)
        self.packets_delivered = 0
        #: store-and-forward handoffs (multi-hop presets only)
        self.hops_forwarded = 0
        #: packets and wire bytes that reached their first channel
        #: (injection-time drops excluded, a duplicate counted once)
        self.packets_sent = 0
        self.bytes_sent = 0
        #: fabric-scope fault tallies
        self.fault_totals: Dict[str, int] = {
            "dropped": 0, "duplicated": 0, "delayed": 0, "corrupted": 0
        }
        #: per-link fault tallies, keyed by link name -- lets heatmaps
        #: and watchdogs localize a faulty channel instead of seeing one
        #: fabric-wide aggregate (populated lazily, fault runs only)
        self.link_faults: Dict[str, Dict[str, int]] = {}
        #: packets committed to a wire but not yet delivered (duplicates
        #: count twice, dropped packets leave the count) -- a plain
        #: counter kept exact by inject/forward/delivery, probed by the
        #: timeline
        self.in_flight = 0
        # telemetry: snapshot-time collectors over the totals above and
        # over the Link objects' own per-channel traffic tallies
        registry = engine.metrics
        if registry.enabled:
            registry.register_collector(f"{name}/packets", lambda: self.packets_sent)
            registry.register_collector(f"{name}/bytes", lambda: self.bytes_sent)
            registry.register_tallies(
                name, self, "packets_delivered", "hops_forwarded", "in_flight"
            )
            for kind in self.fault_totals:
                registry.register_collector(
                    f"{name}/faults_{kind}", lambda kind=kind: self.fault_totals[kind]
                )
            for link in self._links.values():
                registry.register_collector(
                    f"{link.name}/bytes", lambda lnk=link: lnk.bytes_sent
                )
                registry.register_collector(
                    f"{link.name}/utilization",
                    lambda lnk=link: lnk.utilization(),
                )
                if observe_hops:
                    # congestion levels for the fabric watchdogs: backlog
                    # now and contention wait so far, per channel
                    registry.register_collector(
                        f"{link.name}/queue", lambda lnk=link: lnk.queue_depth
                    )
                    registry.register_collector(
                        f"{link.name}/wait", lambda lnk=link: lnk.wait_ps
                    )
            if faults is not None:
                # per-link fault localization (snapshot-time collectors
                # over the lazy tallies; registered only on fault runs so
                # fault-free snapshots keep their historical key set)
                for link in self._links.values():
                    for kind in ("dropped", "duplicated", "delayed", "corrupted"):
                        registry.register_collector(
                            f"{link.name}/faults_{kind}",
                            lambda lnk=link, k=kind: self.link_faults.get(
                                lnk.name, {}
                            ).get(k, 0),
                        )

    # ------------------------------------------------------------ injection
    def _fault(self, link: Link, kind: str) -> None:
        """Count one fault verdict at fabric scope and against ``link``."""
        self.fault_totals[kind] += 1
        per_link = self.link_faults.get(link.name)
        if per_link is None:
            per_link = self.link_faults[link.name] = {
                "dropped": 0, "duplicated": 0, "delayed": 0, "corrupted": 0
            }
        per_link[kind] += 1

    def _send_hop(self, link: Link, packet: Packet, wire_bytes: int) -> None:
        """Commit ``packet`` to ``link``; mark the hop when observed.

        The three marks carry *computed* timestamps known at commit time
        (``Link.send`` returns the delivery instant): contention wait
        runs now -> serialization start, serialization start -> end, and
        head latency end -> delivery -- so the hop's budget telescopes
        exactly onto the channel's actual schedule without a single extra
        simulated event (the zero-perturbation guarantee).
        """
        deliver_at = link.send(packet, wire_bytes)
        if self.observe_hops:
            recorder = self.engine.recorder
            if recorder.enabled:
                now = self.engine.now
                occupancy = link.occupancy_ps(wire_bytes)
                start = deliver_at - link.latency_ps - occupancy
                uid = packet.send_id
                name = self.name
                recorder.record_clamped(
                    name,
                    "hop_wait",
                    uid,
                    now,
                    {"link": link.name, "wait_ps": start - now},
                )
                recorder.record_clamped(
                    name,
                    "hop_serialize",
                    uid,
                    start,
                    {
                        "link": link.name,
                        "serialize_ps": occupancy,
                        "bytes": wire_bytes,
                    },
                )
                recorder.record_clamped(
                    name,
                    "hop_transit",
                    uid,
                    start + occupancy,
                    {"link": link.name, "transit_ps": link.latency_ps},
                )

    def _mark_fault_delay(self, link: Link, packet: Packet, delay_ps: int) -> None:
        """A reorder-delay verdict held the packet back before this hop."""
        if self.observe_hops:
            recorder = self.engine.recorder
            if recorder.enabled:
                recorder.record_clamped(
                    self.name,
                    "hop_fault_delay",
                    packet.send_id,
                    self.engine.now,
                    {"link": link.name, "delay_ps": delay_ps},
                )

    def inject(self, packet: Packet) -> Packet:
        """Send a packet; returns the one committed to the wire: ``packet``
        itself (frozen, never copied), or a corrupt verdict's damaged copy."""
        src = packet.src
        dst = packet.dst
        if not 0 <= src < self.num_nodes:
            raise ValueError(f"bad source node {src}")
        if not 0 <= dst < self.num_nodes:
            raise ValueError(f"bad destination node {dst}")
        self._pair_packets[src][dst] += 1
        self.packets_injected += 1
        self.in_flight += 1
        sent = self._hop(self._first_link[src][dst], packet, None)
        return packet if sent is None else sent

    def _hop(self, link: Link, packet: Packet, at_hop: Optional[int]) -> Optional[Packet]:
        """Put an in-flight packet onto ``link`` under the fault oracle.

        ``at_hop`` is the forwarding node, or None at injection (which
        alone marks ``wire`` and counts packets and bytes).  Returns the
        packet committed (a corrupt verdict's damaged copy), or None when
        the channel dropped it: the packet leaves ``in_flight`` and the
        endpoints' reliability layer (if any) recovers via timeout.
        """
        faults = self.faults
        verdict = DELIVER if faults is None else faults.judge(packet)
        if verdict is DROP:
            # swallowed by the wire: no link traffic, no delivery
            self.in_flight -= 1
            self._fault(link, "dropped")
            recorder = self.engine.recorder
            if recorder.enabled:
                detail = {"kind": packet.kind.name, "rel_seq": packet.rel_seq}
                if at_hop is not None:
                    detail["at_hop"] = at_hop
                recorder.record(self.name, "wire_drop", packet.send_id, detail)
            return None
        if verdict is CORRUPT:
            # flip match-header bits but leave the checksum stale so the
            # receiver's verification catches it and NACKs
            packet = dataclasses.replace(
                packet, match_bits=faults.corrupt_bits(packet.match_bits)
            )
            self._fault(link, "corrupted")
        wire_bytes = packet.wire_bytes
        # the wire record lands *before* the hop records: with fabric
        # observability on its residency collapses to zero and the hop
        # stages carry the decomposed budget (identical timestamp and
        # content either way)
        recorder = self.engine.recorder
        if at_hop is None and recorder.enabled:
            recorder.record(
                self.name,
                "wire",
                packet.send_id,
                {
                    "kind": packet.kind.name,
                    "src": packet.src,
                    "dst": packet.dst,
                    "bytes": wire_bytes,
                },
            )
        if verdict is DELAY:
            # hold the packet back long enough for later traffic on the
            # same pair to overtake it: a genuine reorder at the receiver
            self._fault(link, "delayed")
            delay_ps = faults.config.reorder_delay_ps
            self._mark_fault_delay(link, packet, delay_ps)
            self.engine.schedule(
                delay_ps,
                functools.partial(self._send_hop, link, packet, wire_bytes),
            )
        else:
            self._send_hop(link, packet, wire_bytes)
            if verdict is DUPLICATE:
                self._fault(link, "duplicated")
                self.in_flight += 1
                self._send_hop(link, packet, wire_bytes)
        if at_hop is None:
            self.packets_sent += 1
            self.bytes_sent += wire_bytes
        return packet

    # -------------------------------------------------------------- routing
    def _on_hop(self, node: int, packet: Packet) -> None:
        """A channel finished serializing ``packet`` into ``node``."""
        if node == packet.dst:
            self.in_flight -= 1
            self.packets_delivered += 1
            receiver = self._receivers[node]
            if receiver is not None:
                receiver(packet)
                return
            self.rx_fifos[node].push(packet)
            for callback in self._rx_callbacks[node]:
                callback(packet)
        else:
            self._forward(node, packet)

    def _forward(self, node: int, packet: Packet) -> None:
        """Store-and-forward onto the next channel of the route.

        Each hop faces the fault oracle independently (per-link faults):
        a drop here strands the packet mid-route -- recovered, as at
        injection, by the endpoints' reliability layer.
        """
        self.hops_forwarded += 1
        self._hop(self._first_link[node][packet.dst], packet, node)

    # -------------------------------------------------------------- surface
    @property
    def links(self) -> List[Link]:
        """The physical channels (self-channels excluded), build order."""
        return [
            link for (u, v), link in self._links.items() if u != v
        ]

    @property
    def dedicated_links(self) -> List[Link]:
        """Channels that carry one (src, dst) pair only: every
        self-channel, and every wire of the crossbar.  Their levels show
        no contention between pairs, so the sampling probe skips them."""
        crossbar = self.topology.preset == "crossbar"
        return [
            link for (u, v), link in self._links.items() if crossbar or u == v
        ]

    def link(self, src: int, dst: int) -> Link:
        """The channel from ``src`` to adjacent ``dst`` (KeyError if none)."""
        return self._links[(src, dst)]

    def rx_fifo(self, node: int) -> Fifo:
        """The receive FIFO the NIC of ``node`` polls."""
        return self.rx_fifos[node]

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable picture of the fabric's state.

        This is the ``fabric`` section of the unified run report: the
        topology, per-link traffic/contention/fault tallies, and the
        per-pair traffic matrix with each pair's pinned route (off the
        topology's shared :meth:`~repro.network.topology.Topology.
        route_table`).  Pure reads; safe to take at any time.
        """
        now = self.engine.now
        links: List[Dict[str, object]] = []
        for (u, v), link in self._links.items():
            if u == v:
                continue
            faults = self.link_faults.get(link.name)
            links.append(
                {
                    "src": u,
                    "dst": v,
                    "name": link.name,
                    "messages": link.messages_sent,
                    "bytes": link.bytes_sent,
                    "busy_ps": link.busy_ps,
                    "wait_ps": link.wait_ps,
                    "utilization": link.utilization(),
                    "peak_queue": link.peak_queue,
                    "faults": dict(faults) if faults else None,
                }
            )
        routes = self.topology.route_table()
        pairs = [
            {
                "src": src,
                "dst": dst,
                "packets": count,
                "hops": len(routes[(src, dst)]) if src != dst else 1,
                "route": list(routes[(src, dst)]) if src != dst else [dst],
            }
            for src, row in enumerate(self._pair_packets)
            for dst, count in enumerate(row)
            if count
        ]
        topology = self.topology
        return {
            "topology": {
                "preset": topology.preset,
                "dims": list(topology.dims) if topology.dims else None,
                "num_nodes": topology.num_nodes,
                "diameter": topology.diameter(),
                "description": topology.describe(),
            },
            "now_ps": now,
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "hops_forwarded": self.hops_forwarded,
            "in_flight": self.in_flight,
            "wire_bytes": sum(link["bytes"] for link in links),
            "fault_totals": dict(self.fault_totals),
            "links": links,
            "pairs": pairs,
        }

    def subscribe_rx(self, node: int, callback) -> None:
        """Call ``callback(packet)`` whenever a packet lands at ``node``.

        Fires after the packet is pushed into the node's rx FIFO, i.e.
        hardware-side: the NIC uses this for its wakeup kick and for
        replicating match headers into the ALPU's header FIFO.  Raises
        ``ValueError`` on a node with a bound receiver.
        """
        if self._receivers[node] is not None:
            raise ValueError(f"node {node} has a bound receiver, not rx subscribers")
        self._rx_callbacks[node].append(callback)

    def bind_receiver(self, node: int, receiver: Callable[[Packet], None]) -> None:
        """Hand every packet landing at ``node`` to ``receiver`` instead of
        the rx FIFO and subscribers (a reliability NIC binds its layer).
        Raises ``ValueError`` if the node has either one already.
        """
        if self._receivers[node] is not None or self._rx_callbacks[node]:
            raise ValueError(f"node {node} has a bound receiver or rx subscribers")
        self._receivers[node] = receiver
