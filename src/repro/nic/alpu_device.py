"""The ALPU as a NIC bus device (Figure 1).

Wraps the behavioural :class:`~repro.core.alpu.Alpu` with the three
decoupling FIFOs and the pipeline timing of Section V-D:

* **header FIFO** -- fed *by hardware* when match-relevant packets arrive
  (posted-receive ALPU) or when receives are posted (unexpected ALPU);
  costs the processor nothing.
* **command FIFO** -- written by the processor over the 20 ns local bus.
* **result FIFO** -- read by the processor over the bus (a read is a
  request/response round trip: 40 ns).

A device process drains headers and commands: each match occupies the
pipeline for 7 ALPU cycles (14 ns at the 500 MHz ASIC-projected clock,
with no execution overlap), inserts occupy 2 cycles, and commands 1.
Responses appear in the result FIFO in protocol order.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.core.alpu import Alpu, AlpuConfig
from repro.core.commands import Command, Insert, Response
from repro.core.match import MatchRequest
from repro.core.pipeline import AlpuTimingModel
from repro.obs.recorder import KIND_BEGIN, KIND_END
from repro.proc.params import NIC_BUS_LATENCY_PS
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.fifo import Fifo
from repro.sim.process import Process, delay, wait_on
from repro.sim.signal import Signal


@dataclasses.dataclass(frozen=True)
class AlpuFaultConfig:
    """Injectable device failure for recovery testing.

    ``mode="stall"`` freezes the device pipeline at ``at_ps``: headers and
    commands keep accumulating in the FIFOs but the result FIFO stops
    producing -- the stuck-device scenario the driver's stall budget and
    the firmware's backend degradation are built to survive.  The default
    ``mode="none"`` schedules nothing and changes nothing.
    """

    mode: str = "none"
    #: simulated time at which the fault trips
    at_ps: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("none", "stall"):
            raise ValueError(f"unknown ALPU fault mode {self.mode!r}")
        if self.at_ps < 0:
            raise ValueError(f"at_ps must be >= 0, got {self.at_ps}")


class AlpuDevice(Component):
    """Event-driven ALPU with bus-visible FIFOs."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        config: AlpuConfig,
        timing: Optional[AlpuTimingModel] = None,
        bus_latency_ps: int = NIC_BUS_LATENCY_PS,
        fault: Optional[AlpuFaultConfig] = None,
    ) -> None:
        super().__init__(engine, name)
        timing = timing if timing is not None else AlpuTimingModel()
        fault = fault if fault is not None else AlpuFaultConfig()
        self.alpu = Alpu(config, metrics=engine.metrics, name=name)
        self.timing = timing
        self.bus_latency_ps = bus_latency_ps
        self.header_fifo: Fifo[MatchRequest] = Fifo(name=f"{name}.headers")
        self.command_fifo: Fifo[Command] = Fifo(name=f"{name}.commands")
        self.result_fifo: Fifo[Response] = Fifo(name=f"{name}.results")
        #: hardware header-replication enable (Section IV-C: "the
        #: processor can disable the delivery of duplicate information
        #: ... to the ALPU until it is initialized").  The NIC's arrival
        #: hooks consult this before copying headers in; the driver
        #: toggles it through :meth:`bus_write_delivery_enable`.
        self.hw_delivery_enabled = True
        self._kick = Signal(f"{name}.kick")
        #: True once an injected fault froze the pipeline
        self.stalled = False
        #: a signal nobody ever pulses: the stalled pipeline parks on it
        self._stall_hold = Signal(f"{name}.stall_hold")
        self.fault = fault
        if fault.mode == "stall":
            engine.schedule(fault.at_ps, self._trip_stall)
        self._proc = Process(engine, self._run(), name=f"{name}.pipeline")

    def _trip_stall(self) -> None:
        """The injected fault fires: freeze the pipeline from now on."""
        self.stalled = True
        if self.engine.recorder.enabled:
            self.engine.recorder.record(self.name, "stall")
        # wake the pipeline so an idle device parks on the stall hold
        # instead of the kick (purely cosmetic; any later kick would park
        # it just the same)
        self._kick.pulse()

    # ----------------------------------------------------- hardware inputs
    def hw_push_header(self, request: MatchRequest) -> None:
        """Hardware-side header replication (free for the processor)."""
        self.header_fifo.push(request)
        self._kick.pulse()

    # --------------------------------------------------------- bus accesses
    def bus_write_command(self, command: Command) -> int:
        """Posted write of one command; returns the processor-side cost."""

        def deliver() -> None:
            self.command_fifo.push(command)
            self._kick.pulse()

        self.engine.schedule_call(self.bus_latency_ps, deliver)
        return self.bus_latency_ps

    def bus_write_delivery_enable(self, enabled: bool) -> int:
        """Toggle hardware header replication; returns processor cost.

        Modelled as a posted control-register write taking effect
        immediately (the register sits on the header path, not behind the
        command FIFO, so no in-flight header can observe a torn state:
        every header pushed before the write has a result coming, every
        later one does not).
        """
        self.hw_delivery_enabled = enabled
        return self.bus_latency_ps

    def bus_read_result(self) -> Tuple[int, Optional[Response]]:
        """Read the result FIFO head: a full bus round trip.

        Returns ``(cost_ps, response-or-None)``.  The cost is charged even
        when the FIFO turns out to be empty -- polling is not free.
        """
        cost = 2 * self.bus_latency_ps
        return cost, self.result_fifo.try_pop()

    # ------------------------------------------------------ device pipeline
    def _run(self):
        """The control loop: commands preempt headers between matches."""
        recorder = self.engine.recorder
        alpu = self.alpu
        command_fifo = self.command_fifo
        header_fifo = self.header_fifo
        # the FIFOs' deques: an empty check is a C-level truth test
        commands = command_fifo.items
        headers = header_fifo.items
        result_push = self.result_fifo.push
        kick_wait = wait_on(self._kick)
        match_ps = self.timing.match_ps(alpu.config)
        while True:
            if self.stalled:
                # stuck device: FIFOs fill, results never come.  Park on a
                # signal that is never pulsed.
                yield wait_on(self._stall_hold)
                continue
            if commands:
                command = command_fifo.pop()
                if recorder.enabled:
                    recorder.record(
                        self.name,
                        "command",
                        detail={"command": type(command).__name__},
                        kind=KIND_BEGIN,
                    )
                yield delay(self._command_occupancy_ps(command))
                for response in alpu.submit(command):
                    result_push(response)
                if recorder.enabled:
                    recorder.record(self.name, "command", kind=KIND_END)
            elif headers:
                request = header_fifo.pop()
                if recorder.enabled:
                    recorder.record(self.name, "match", kind=KIND_BEGIN)
                yield delay(match_ps)
                responses = alpu.present_header(request)
                for response in responses:
                    result_push(response)
                if recorder.enabled:
                    recorder.record(
                        self.name,
                        "match",
                        detail={
                            "resolved": len(responses),
                            "occupancy": alpu.occupancy,
                        },
                        kind=KIND_END,
                    )
            else:
                yield kick_wait

    def _command_occupancy_ps(self, command: Command) -> int:
        if isinstance(command, Insert):
            occupancy = self.timing.insert_ps()
            # "Matches are stopped temporarily for each insert": a held
            # retry against the new entry costs one match pass
            if self.alpu.has_held_request:
                occupancy += self.timing.match_ps(self.alpu.config)
            return occupancy
        return self.timing.command_ps()
