"""The assembled NIC (Figure 1).

One :class:`Nic` bundles the embedded processor (500 MHz, 32 KB L1), local
memory allocator, Tx/Rx DMA engines, the host command/completion links,
and -- when enabled -- the two ALPU devices (posted-receive and
unexpected-message) with their drivers, all hanging off the 20 ns local
bus.  Hardware-side header replication is wired here:

* match-relevant packets (EAGER / RNDV_RTS) are copied into the
  posted-receive ALPU's header FIFO the moment they arrive;
* PostRecv commands are copied into the unexpected ALPU's header FIFO
  (with their wildcard mask as the input mask) the moment they arrive.

Neither copy costs the processor anything; that decoupling is the point
of the added FIFOs in the paper's Figure 1.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Optional

from repro.core import AlpuConfig, CellKind
from repro.core.match import MatchRequest
from repro.core.pipeline import AlpuTimingModel
from repro.memory.layout import AddressAllocator
from repro.network.fabric import Fabric
from repro.network.packet import Packet
from repro.nic.alpu_device import AlpuDevice, AlpuFaultConfig
from repro.nic.dma import DmaConfig, DmaEngine
from repro.nic.driver import AlpuQueueDriver, DriverConfig
from repro.nic.firmware import FirmwareConfig, NicFirmware
from repro.nic.qdisc import AdmissionControl, QdiscConfig, create_discipline
from repro.nic.reliability import ReliabilityConfig, ReliabilityLayer
from repro.nic.host_interface import HOST_NIC_LATENCY_PS, PostRecv
from repro.nic.queues import NicQueue
from repro.proc.costmodel import NicCostModel
from repro.proc.params import NIC_PARAMS, make_nic_memory
from repro.proc.processor import Processor
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.fifo import Fifo
from repro.sim.link import Link
from repro.sim.process import Process
from repro.sim.signal import Signal


@dataclasses.dataclass(frozen=True)
class NicConfig:
    """Everything configurable about one NIC."""

    firmware: FirmwareConfig = dataclasses.field(default_factory=FirmwareConfig)
    #: geometry of the posted-receive ALPU (None = per-kind default)
    alpu_posted: Optional[AlpuConfig] = None
    #: geometry of the unexpected-message ALPU
    alpu_unexpected: Optional[AlpuConfig] = None
    alpu_timing: AlpuTimingModel = dataclasses.field(default_factory=AlpuTimingModel)
    posted_driver: DriverConfig = dataclasses.field(default_factory=DriverConfig)
    unexpected_driver: DriverConfig = dataclasses.field(default_factory=DriverConfig)
    dma: DmaConfig = dataclasses.field(default_factory=DmaConfig)
    cost: NicCostModel = dataclasses.field(default_factory=NicCostModel)
    #: link-level retransmission (off by default: the zero-fault
    #: benchmarks never route packets through the reliability layer)
    reliability: ReliabilityConfig = dataclasses.field(
        default_factory=ReliabilityConfig
    )
    #: injectable ALPU device failure (recovery testing; default inert)
    alpu_fault: AlpuFaultConfig = dataclasses.field(
        default_factory=AlpuFaultConfig
    )
    #: queue discipline + admission control (repro.nic.qdisc); the
    #: default FIFO discipline is bit-identical to the historical queues
    qdisc: QdiscConfig = dataclasses.field(default_factory=QdiscConfig)
    #: MPI processes sharing this NIC (the paper's footnote 1: "extending
    #: it to support a limited number of processes is straightforward").
    #: With more than one, the NIC folds each local process id into the
    #: context field of the match word, so co-located processes share the
    #: queues and the ALPUs without ever cross-matching.
    ranks_per_node: int = 1

    def __post_init__(self) -> None:
        if self.qdisc.max_unexpected > 0 and not self.reliability.enabled:
            raise ValueError(
                "qdisc.max_unexpected needs the reliability layer: a "
                "refused packet is recovered by the sender's retransmit "
                "machinery, which only exists with "
                "reliability=ReliabilityConfig(enabled=True)"
            )

    @staticmethod
    def baseline() -> "NicConfig":
        """The Red Storm-like NIC: embedded processor only."""
        return NicConfig(firmware=FirmwareConfig())

    @staticmethod
    def with_backend(name: str, **firmware_kwargs) -> "NicConfig":
        """A NIC using any registered matching backend, by name.

        ``name`` must be registered with
        :func:`repro.nic.backends.register_backend`; backends registered
        with ``needs_alpu=True`` get default-geometry ALPUs (use
        :meth:`with_alpu` to size them).
        """
        return NicConfig(
            firmware=FirmwareConfig(matching=name, **firmware_kwargs)
        )

    @staticmethod
    def with_alpu(total_cells: int = 256, block_size: int = 16) -> "NicConfig":
        """A NIC with posted-receive and unexpected ALPUs of equal size."""
        return NicConfig(
            firmware=FirmwareConfig(matching="alpu"),
            alpu_posted=AlpuConfig(
                kind=CellKind.POSTED_RECEIVE,
                total_cells=total_cells,
                block_size=block_size,
            ),
            alpu_unexpected=AlpuConfig(
                kind=CellKind.UNEXPECTED,
                total_cells=total_cells,
                block_size=block_size,
            ),
        )


class Nic(Component):
    """One network interface with its firmware process."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        fabric: Fabric,
        host_completion_fifo: Fifo,
        config: Optional[NicConfig] = None,
    ) -> None:
        super().__init__(engine, f"nic{node_id}")
        self.node_id = node_id
        self.fabric = fabric
        self.config = config = config if config is not None else NicConfig()
        self.cost = config.cost
        self.proc = Processor(
            engine, f"{self.name}.proc", NIC_PARAMS.clock_hz, make_nic_memory()
        )
        self.allocator = AddressAllocator(base=0x10_0000)
        #: anything-to-do wakeup for the firmware loop
        self.kick = Signal(f"{self.name}.kick")

        # the five primary data structures live in NIC memory; the two
        # matching queues carry the configured discipline (one instance
        # each -- disciplines hold per-queue shard state), the send queue
        # is always plain FIFO
        fmt = config.firmware.match_format
        self.posted_recv_q = NicQueue(
            f"{self.name}.postedRecvQ",
            self.allocator,
            discipline=create_discipline(config.qdisc, fmt),
        )
        self.unexpected_q = NicQueue(
            f"{self.name}.unexpectedQ",
            self.allocator,
            discipline=create_discipline(config.qdisc, fmt),
        )
        self.send_q = NicQueue(f"{self.name}.sendQ", self.allocator)
        if engine.metrics.enabled:
            for queue in (self.posted_recv_q, self.unexpected_q, self.send_q):
                engine.metrics.register_collector(
                    f"{queue.name}/depth",
                    lambda q=queue: {"value": len(q), "high_water": q.max_length},
                )
                engine.metrics.register_collector(
                    f"{queue.name}/max_depth", lambda q=queue: q.max_length
                )
        #: buffer-occupancy admission control (None = everything admitted);
        #: consulted by the reliability layer's receive path
        self.admission: Optional[AdmissionControl] = (
            AdmissionControl(self, config.qdisc)
            if config.qdisc.max_unexpected > 0
            else None
        )

        # network side.  Without the reliability layer the NIC polls the
        # fabric's rx FIFO directly (the historical, bit-identical path);
        # with it, the layer is the node's fabric receiver: it filters wire
        # arrivals (checksum / duplicate / reorder) and only accepted
        # in-order packets reach the firmware.
        self.reliability: Optional[ReliabilityLayer] = None
        if config.reliability.enabled:
            self.rx_fifo = Fifo(name=f"{self.name}.rxaccepted")
            self.reliability = ReliabilityLayer(self, config.reliability)
            fabric.bind_receiver(node_id, self.reliability.on_wire_arrival)
        else:
            self.rx_fifo = fabric.rx_fifo(node_id)
            fabric.subscribe_rx(node_id, self._on_packet_arrival)
        #: set by the firmware when a stalled ALPU forces software-only
        #: matching; gates hardware header replication
        self.alpu_offline = False

        # DMA engines (Fig. 1: logically separate Tx and Rx)
        self.tx_dma = DmaEngine(engine, f"{self.name}.txdma", config.dma)
        self.rx_dma = DmaEngine(engine, f"{self.name}.rxdma", config.dma)
        self.tx_dma.done.observe(self.kick.pulse)
        self.rx_dma.done.observe(self.kick.pulse)

        # host side: commands arrive here; completions leave through one
        # link per local process (lproc 0 attaches at construction)
        self.host_cmd_fifo: Fifo = Fifo(name=f"{self.name}.hostcmd")
        self.host_completion_link = Link(
            engine,
            f"{self.name}.completions",
            dest=host_completion_fifo,
            latency_ps=HOST_NIC_LATENCY_PS,
        )
        self._completion_links = {0: self.host_completion_link}

        # the ALPUs and their drivers, built whenever the resolved
        # matching backend declares it needs them (needs_alpu=True in the
        # backend registry; the stock "alpu" backend does)
        self.posted_device: Optional[AlpuDevice] = None
        self.unexpected_device: Optional[AlpuDevice] = None
        self.posted_driver: Optional[AlpuQueueDriver] = None
        self.unexpected_driver: Optional[AlpuQueueDriver] = None
        if config.firmware.backend.needs_alpu:
            posted_cfg = config.alpu_posted or AlpuConfig(
                kind=CellKind.POSTED_RECEIVE
            )
            unexpected_cfg = config.alpu_unexpected or AlpuConfig(
                kind=CellKind.UNEXPECTED
            )
            self.posted_device = AlpuDevice(
                engine,
                f"{self.name}.alpu.posted",
                posted_cfg,
                config.alpu_timing,
                fault=config.alpu_fault,
            )
            self.unexpected_device = AlpuDevice(
                engine,
                f"{self.name}.alpu.unexpected",
                unexpected_cfg,
                config.alpu_timing,
                fault=config.alpu_fault,
            )
            self.posted_driver = AlpuQueueDriver(
                self.posted_device,
                self.posted_recv_q,
                self.proc,
                self.cost,
                config.posted_driver,
            )
            self.unexpected_driver = AlpuQueueDriver(
                self.unexpected_device,
                self.unexpected_q,
                self.proc,
                self.cost,
                config.unexpected_driver,
            )

        # per-arrival records of whether the hardware replicated the
        # header into each ALPU (aligned FIFO-for-FIFO with the packets /
        # commands the firmware will process; needed because the driver
        # can disable replication while the queue is short)
        self.posted_pushed_flags = deque()
        self.unexpected_pushed_flags = deque()

        self.firmware = NicFirmware(self)
        self._proc = Process(engine, self.firmware.run(), name=f"{self.name}.fw")

    @property
    def alpu_devices(self) -> tuple:
        """The assembled ALPU devices (empty for software-only backends)."""
        return tuple(
            device
            for device in (self.posted_device, self.unexpected_device)
            if device is not None
        )

    # -------------------------------------------------------- hardware hooks
    def accept_packet(self, packet: Packet) -> None:
        """Reliability layer verdict: this packet reaches the firmware."""
        self.rx_fifo.push(packet)
        self._on_packet_arrival(packet)

    def _on_packet_arrival(self, packet: Packet) -> None:
        """Hardware actions at packet delivery (no processor involvement)."""
        lifecycle = self.engine.lifecycle
        if lifecycle.enabled:
            lifecycle.mark_uid(
                packet.send_id,
                "rx_queue",
                detail={"node": self.node_id, "kind": packet.kind.name},
            )
        if (
            self.posted_device is not None
            and not self.alpu_offline
            and packet.kind.carries_match
        ):
            pushed = self.posted_device.hw_delivery_enabled
            if pushed:
                self.posted_device.hw_push_header(
                    MatchRequest(bits=packet.match_bits)
                )
            self.posted_pushed_flags.append(pushed)
        self.kick.pulse()

    def deliver_host_command(self, command) -> None:
        """Called by the host->NIC link when a command lands."""
        if (
            self.unexpected_device is not None
            and not self.alpu_offline
            and isinstance(command, PostRecv)
        ):
            pushed = self.unexpected_device.hw_delivery_enabled
            if pushed:
                fmt = self.config.firmware.match_format
                bits, mask = fmt.pack_receive(
                    self.effective_context(command.context, command.rank),
                    command.source,
                    command.tag,
                )
                self.unexpected_device.hw_push_header(
                    MatchRequest(bits=bits, mask=mask)
                )
            self.unexpected_pushed_flags.append(pushed)
        self.kick.pulse()

    def inject(self, packet: Packet) -> None:
        """Hand a packet to the Tx FIFO / wire (tracked when reliable)."""
        if self.reliability is not None:
            self.reliability.send(packet)
        else:
            self.fabric.inject(packet)

    # ------------------------------------------------------- multi-process
    #: context-field bits below the folded local process id
    PID_CONTEXT_SHIFT = 8

    def attach_completion_fifo(self, lproc: int, fifo: Fifo) -> None:
        """Attach one more local process's completion path (lproc > 0)."""
        if not 0 < lproc < self.config.ranks_per_node:
            raise ValueError(f"bad local process id {lproc}")
        self._completion_links[lproc] = Link(
            self.engine,
            f"{self.name}.completions{lproc}",
            dest=fifo,
            latency_ps=HOST_NIC_LATENCY_PS,
        )

    def completion_link(self, lproc: int) -> Link:
        """The completion link of one local process."""
        return self._completion_links[lproc]

    def lproc_of(self, rank: int) -> int:
        """Local process index of a global rank (on whichever node).

        The world maps rank r to node ``r // ranks_per_node``, local
        process ``r % ranks_per_node``; senders use this to fold the
        *destination's* process id into outgoing match bits.
        """
        return rank % self.config.ranks_per_node

    def node_of(self, rank: int) -> int:
        """Node hosting a global rank."""
        return rank // self.config.ranks_per_node

    def effective_context(self, context: int, owner_rank: int) -> int:
        """Fold the owner's local process id into the context field.

        With one process per node this is the identity.  With several,
        the id occupies the context field's high bits -- the "straight-
        forward" hardware extension of the paper's footnote 1: the same
        cells and the same compare logic, with part of the match word
        spent on process isolation.
        """
        rpn = self.config.ranks_per_node
        if rpn == 1:
            return context
        lproc = self.lproc_of(owner_rank)
        limit = 1 << self.PID_CONTEXT_SHIFT
        if context >= limit:
            raise ValueError(
                f"context {context} needs the bits reserved for process "
                f"ids (< {limit} with ranks_per_node={rpn})"
            )
        return context + (lproc << self.PID_CONTEXT_SHIFT)
