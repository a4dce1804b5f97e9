"""System assembly: hosts + NICs + fabric = a runnable MPI job.

:class:`MpiWorld` builds one simulated node per rank (host CPU with its
memory hierarchy, NIC per :class:`~repro.nic.nic.NicConfig`, the
host<->NIC links) over a shared :class:`~repro.network.fabric.Fabric`,
then runs user-supplied host programs to completion.

Host programs are generator functions taking an
:class:`~repro.mpi.api.MpiProcess`; their return values are collected per
rank:

    world = MpiWorld(WorldConfig(num_ranks=2, nic=NicConfig.baseline()))
    results = world.run({0: sender_program, 1: receiver_program})
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.mpi.api import MpiProcess
from repro.mpi.communicator import Communicator, world as make_world_comm
from repro.network.fabric import Fabric, FabricConfig
from repro.network.faults import FaultConfig, FaultModel
from repro.obs.health import RETRANSMIT_WINDOW_PS
from repro.obs.probe import SamplingProbe
from repro.obs.tracer import NULL_TRACER
from repro.nic.host_interface import HOST_NIC_LATENCY_PS
from repro.nic.nic import Nic, NicConfig
from repro.proc.costmodel import HostCostModel
from repro.proc.params import CPU_PARAMS, make_host_memory
from repro.proc.processor import Processor
from repro.sim.engine import Engine
from repro.sim.fifo import Fifo
from repro.sim.link import Link
from repro.sim.process import Process


@dataclasses.dataclass(frozen=True)
class WorldConfig:
    """Shape of the simulated job."""

    num_ranks: int = 2
    #: MPI processes per node (>1 enables the footnote-1 shared-NIC mode)
    ranks_per_node: int = 1
    nic: NicConfig = dataclasses.field(default_factory=NicConfig)
    fabric: FabricConfig = dataclasses.field(default_factory=FabricConfig)
    host_cost: HostCostModel = dataclasses.field(default_factory=HostCostModel)
    #: per-rank NIC overrides (rank -> NicConfig); others use ``nic``
    nic_overrides: Optional[Dict[int, NicConfig]] = None
    #: seeded fault injection on the fabric (None = the perfect wire)
    faults: Optional[FaultConfig] = None

    @property
    def num_nodes(self) -> int:
        if self.num_ranks % self.ranks_per_node:
            raise ValueError(
                f"{self.num_ranks} ranks do not fill nodes of "
                f"{self.ranks_per_node}"
            )
        return self.num_ranks // self.ranks_per_node

    def nic_for(self, node: int) -> NicConfig:
        """The NIC configuration this node uses."""
        base = self.nic
        if self.nic_overrides and node in self.nic_overrides:
            base = self.nic_overrides[node]
        if self.ranks_per_node != 1:
            base = dataclasses.replace(base, ranks_per_node=self.ranks_per_node)
        return base


class Host:
    """One rank's slice of the main processor and its NIC attachment.

    With one rank per node this is simply the node's host CPU.  With
    several, each rank gets its own command link and completion FIFO on
    the shared NIC (cores sharing a NIC through independent doorbells).
    """

    def __init__(
        self, engine: Engine, rank: int, nic: Nic, completion_fifo: Fifo
    ) -> None:
        self.rank = rank
        self.proc = Processor(
            engine, f"host{rank}", CPU_PARAMS.clock_hz, make_host_memory()
        )
        self.nic = nic
        #: completions from the NIC land here (nic links into it)
        self.completion_fifo = completion_fifo
        self._cmd_link = Link(
            engine,
            f"host{rank}.cmds",
            dest=nic.host_cmd_fifo,
            latency_ps=HOST_NIC_LATENCY_PS,
            on_deliver=nic.deliver_host_command,
        )

    def send_command(self, command) -> None:
        """Posted write across the host->NIC link."""
        self._cmd_link.send(command)


class MpiWorld:
    """A complete simulated system plus its MPI job harness."""

    def __init__(
        self, config: Optional[WorldConfig] = None, *, telemetry=None
    ) -> None:
        """``telemetry``: an optional :class:`repro.obs.Telemetry` bundle.

        When given, its registry/tracer ride on the engine (so every
        component self-instruments) and a :class:`SamplingProbe` samples
        each NIC's posted/unexpected queue depths and ALPU occupancies on
        ``telemetry.probe_interval_ps``.  A Telemetry object is per-run;
        do not share one across worlds.
        """
        self.config = config = config if config is not None else WorldConfig()
        self.telemetry = telemetry
        #: out-of-band staging for collective values: the simulator moves
        #: packet *sizes*, so reduction/broadcast payloads ride here,
        #: keyed (context, collective-seq, sender, round).  Safe because
        #: a value is published before its matching send is injected and
        #: read only after the matching receive completes.
        self.collective_board: Dict[tuple, object] = {}
        if telemetry is not None:
            self.engine = Engine(
                tracer=telemetry.tracer,
                metrics=telemetry.metrics,
                lifecycle=telemetry.lifecycle,
                profiler=telemetry.profiler,
            )
        else:
            self.engine = Engine()
        num_nodes = config.num_nodes
        self.fault_model: Optional[FaultModel] = (
            FaultModel(config.faults) if config.faults is not None else None
        )
        self.fabric = Fabric(
            self.engine,
            num_nodes,
            config.fabric,
            faults=self.fault_model,
            observe_hops=telemetry is not None and telemetry.fabric_obs,
        )
        if telemetry is not None:
            telemetry.attach_fabric_source(self.fabric.snapshot)
        self.comm_world: Communicator = make_world_comm(config.num_ranks)
        self.nics: List[Nic] = []
        self.hosts: List[Host] = []
        for node in range(num_nodes):
            fifo0 = Fifo(name=f"node{node}.completions0")
            nic = Nic(
                self.engine, node, self.fabric, fifo0, config.nic_for(node)
            )
            self.nics.append(nic)
        for rank in range(config.num_ranks):
            node = rank // config.ranks_per_node
            lproc = rank % config.ranks_per_node
            nic = self.nics[node]
            if lproc == 0:
                fifo = nic.host_completion_link.dest
            else:
                fifo = Fifo(name=f"host{rank}.completions")
                nic.attach_completion_fifo(lproc, fifo)
            self.hosts.append(Host(self.engine, rank, nic, fifo))
        self.probe: Optional[SamplingProbe] = None
        if telemetry is not None and telemetry.probe_interval_ps:
            self.probe = self._build_probe(telemetry)
            self.probe.start()

    def _build_probe(self, telemetry) -> SamplingProbe:
        """Periodic sampling of queue depths, occupancies, reliability
        state, fabric in-flight packets and engine throughput.

        Every sampler feeds the metrics histograms (as before) and, when
        the bundle carries a :class:`~repro.obs.timeline.Timeline`, a
        windowed series under the matching metric-style name -- the
        substrate the health watchdogs evaluate.
        """
        registry = telemetry.metrics
        probe = SamplingProbe(
            self.engine,
            telemetry.probe_interval_ps,
            tracer=telemetry.tracer if telemetry.tracer is not None else NULL_TRACER,
            timeline=telemetry.timeline,
        )

        def hist(name):
            return registry.histogram(name) if registry is not None else None

        for nic in self.nics:
            for queue in (nic.posted_recv_q, nic.unexpected_q):
                probe.add(
                    "nic",
                    f"{queue.name}.depth",
                    (lambda q=queue: len(q)),
                    hist(f"{queue.name}/depth_samples"),
                    series=f"{queue.name}/depth",
                )
            # software-only backends assemble no ALPUs; the tuple is empty
            for device in nic.alpu_devices:
                probe.add(
                    "alpu",
                    f"{device.name}.occupancy",
                    (lambda d=device: d.alpu.occupancy),
                    hist(f"{device.name}/occupancy_samples"),
                    series=f"{device.name}/occupancy",
                )
            if nic.reliability is not None:
                rel = nic.reliability
                probe.add(
                    "nic",
                    f"{nic.name}.rel.unacked",
                    (lambda r=rel: r.unacked_count),
                    hist(f"{nic.name}.rel/unacked_samples"),
                    series=f"{nic.name}.rel/unacked",
                )
                probe.add(
                    "nic",
                    f"{nic.name}.rel.reorder_held",
                    (lambda r=rel: r.reorder_held),
                    hist(f"{nic.name}.rel/reorder_held_samples"),
                    series=f"{nic.name}.rel/reorder_held",
                )
                probe.add(
                    "nic",
                    f"{nic.name}.rel.retransmits",
                    (lambda r=rel: r.retransmits),
                    series=f"{nic.name}.rel/retransmits",
                    mode="cumulative",
                    # storm-width windows: see the watchdog's definition
                    window_ps=RETRANSMIT_WINDOW_PS,
                )
            if nic.admission is not None:
                adm = nic.admission
                probe.add(
                    "nic",
                    f"{nic.name}.adm.refused",
                    (lambda a=adm: a.refused),
                    series=f"{nic.name}.adm/refused",
                    mode="cumulative",
                    # refusals are bursty like retransmit storms; share
                    # the window so the pressure watchdog sees per-window
                    # refusal rates
                    window_ps=RETRANSMIT_WINDOW_PS,
                )
            probe.add(
                "nic",
                f"{nic.name}.fw.completions",
                (lambda n=nic: n.firmware.completions_sent),
                series=f"{nic.name}.fw/completions",
                mode="cumulative",
            )
        probe.add(
            "network",
            f"{self.fabric.name}.in_flight",
            (lambda: self.fabric.in_flight),
            hist(f"{self.fabric.name}/in_flight_samples"),
            series=f"{self.fabric.name}/in_flight",
        )
        if self.fabric.topology.preset != "crossbar":
            # routed presets share channels, so per-link utilization is
            # the congestion signal worth windowing; the crossbar's
            # dedicated wires skip this (and keep its pinned telemetry
            # documents bit-identical to the pre-topology fabric)
            for link in self.fabric.links:
                probe.add(
                    "network",
                    f"{link.name}.utilization",
                    (lambda lnk=link: lnk.utilization()),
                    series=f"{link.name}/util",
                )
                if telemetry.fabric_obs:
                    # congestion substrate for the fabric watchdogs:
                    # instantaneous backlog and cumulative contention
                    # wait per channel (opt-in with fabric observability
                    # so pre-existing timeline documents keep their
                    # series set)
                    probe.add(
                        "network",
                        f"{link.name}.queue",
                        (lambda lnk=link: lnk.queue_depth),
                        series=f"{link.name}/queue",
                    )
                    probe.add(
                        "network",
                        f"{link.name}.wait",
                        (lambda lnk=link: lnk.wait_ps),
                        series=f"{link.name}/wait",
                        mode="cumulative",
                    )
        probe.add(
            "engine",
            "events",
            (lambda: self.engine.events_fired),
            series="engine/events",
            mode="cumulative",
        )
        return probe

    # ----------------------------------------------------------------- run
    def run(
        self,
        programs: Dict[int, Callable],
        *,
        deadline_us: float = 1_000_000.0,
    ) -> Dict[int, object]:
        """Run one host program per rank until all of them return.

        Returns ``{rank: program return value}``.  Raises if a program
        failed or the deadline passed with programs still running (a
        deadlock in the modelled protocol).
        """
        missing = set(range(self.config.num_ranks)) - set(programs)
        if missing:
            raise ValueError(f"no program for ranks {sorted(missing)}")

        processes: Dict[int, Process] = {}
        for rank, program in programs.items():
            mpi = MpiProcess(self, rank)
            processes[rank] = Process(
                self.engine, program(mpi), name=f"rank{rank}", start=False
            )

        remaining = len(processes)

        def on_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self.engine.stop()

        for process in processes.values():
            process.done.observe(on_done)
            process.start()

        self.engine.run(until=round(deadline_us * 1_000_000))
        for rank, process in processes.items():
            if process.error is not None:
                raise RuntimeError(f"rank {rank} failed") from process.error
            if not process.finished:
                raise RuntimeError(
                    f"rank {rank} did not finish by the deadline "
                    f"({deadline_us} us) -- protocol deadlock?"
                )
        return {rank: process.result for rank, process in processes.items()}

    @property
    def now_ps(self) -> int:
        """Current simulated time in picoseconds."""
        return self.engine.now
