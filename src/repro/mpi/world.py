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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.mpi.api import MpiProcess
from repro.mpi.communicator import Communicator, world as make_world_comm
from repro.network.fabric import Fabric, FabricConfig
from repro.network.faults import FaultConfig, FaultModel
from repro.nic.host_interface import HOST_NIC_LATENCY_PS
from repro.nic.nic import Nic, NicConfig
from repro.proc.costmodel import HostCostModel
from repro.proc.params import CPU_PARAMS, make_host_memory
from repro.proc.processor import Processor
from repro.sim.engine import Engine, SimulationError
from repro.sim.fifo import Fifo
from repro.sim.link import Link
from repro.sim.process import Process

if TYPE_CHECKING:
    from repro.obs.probe import SamplingProbe


class RankFailedError(SimulationError):
    """A rank's host program raised; the rank's exception is the cause."""

    def __init__(self, rank: int) -> None:
        super().__init__(f"rank {rank} failed")
        self.rank = rank


class DeadlockError(SimulationError):
    """The deadline passed with ranks still running (a protocol deadlock)."""

    def __init__(self, ranks: List[int], deadline_us: float) -> None:
        super().__init__(
            f"ranks {ranks} did not finish by the deadline "
            f"({deadline_us} us) -- protocol deadlock?"
        )
        #: the unfinished ranks, in rank order
        self.ranks = ranks


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

        When given, its registry and recorder ride on the engine (so every
        component self-instruments) and a :class:`SamplingProbe` samples
        the state collectors the components registered (queue depths,
        ALPU occupancies, reliability and fabric levels, progress
        counters; see :data:`repro.obs.probe.SIGNALS`) on
        ``telemetry.probe_interval_ps``.  A bundle serves one world: a
        second world built on it raises
        :class:`~repro.obs.telemetry.TelemetryReuseError`.
        """
        if telemetry is not None:
            # first, so a rejected second world registers nothing
            telemetry.bind_world(lambda: self.fabric.snapshot())
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
                recorder=telemetry.recorder,
                metrics=telemetry.metrics,
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
            from repro.obs.probe import SamplingProbe

            self.probe = SamplingProbe(
                self.engine,
                telemetry.probe_interval_ps,
                timeline=telemetry.timeline,
                # no congestion signal there (and crossbar timelines keep
                # the series set of the pre-topology fabric)
                skip=[link.name for link in self.fabric.dedicated_links],
            )
            self.probe.start()

    # ----------------------------------------------------------------- run
    def run(
        self,
        programs: Dict[int, Callable],
        *,
        deadline_us: float = 1_000_000.0,
    ) -> Dict[int, object]:
        """Run one host program per rank until all of them return.

        Returns ``{rank: program return value}``.  Raises
        :class:`RankFailedError` (chained to the rank's exception) if a
        program failed, and :class:`DeadlockError` if the deadline passed
        with programs still running (a deadlock in the modelled protocol).
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

        try:
            self.engine.run(until=round(deadline_us * 1_000_000))
        except Exception as exc:
            # a rank's exception escapes the engine from its process
            for rank, process in processes.items():
                if process.error is exc:
                    raise RankFailedError(rank) from exc
            raise
        unfinished = sorted(
            rank for rank, process in processes.items() if not process.finished
        )
        if unfinished:
            raise DeadlockError(unfinished, deadline_us)
        return {rank: process.result for rank, process in processes.items()}

    @property
    def now_ps(self) -> int:
        """Current simulated time in picoseconds."""
        return self.engine.now
