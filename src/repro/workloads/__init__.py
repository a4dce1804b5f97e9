"""The benchmarks of Section V-A and the harness that runs them.

* :mod:`repro.workloads.pingpong` -- classic ping-pong latency/bandwidth
  (sanity check and quickstart example).
* :mod:`repro.workloads.preposted` -- the posted-receive-queue benchmark
  of [10]: three degrees of freedom (queue length, portion of the queue
  traversed, message size).  Regenerates Figure 5.
* :mod:`repro.workloads.unexpected` -- the unexpected-message-queue
  benchmark of [10]: queue length and message size, with the time to post
  the measuring receive *included* in the latency.  Regenerates Figure 6.
* :mod:`repro.workloads.halo` -- many-rank nearest-neighbour halo
  exchange plus a per-iteration allreduce, the workload that exercises
  the routed topologies (ring/mesh2d/torus3d) beyond two ranks.
* :mod:`repro.workloads.sweep` -- the generic grid-sweep executor:
  declarative :class:`~repro.workloads.sweep.SweepSpec` grids, optional
  process fan-out, one :class:`~repro.workloads.sweep.SweepRow` per
  point and the JSON telemetry dump, plus the configuration presets
  (baseline NIC, 128-entry ALPU, 256-entry ALPU).
"""

from repro.workloads.halo import HaloParams, HaloResult, run_halo
from repro.workloads.pingpong import PingPongParams, run_pingpong
from repro.workloads.preposted import PrepostedParams, PrepostedResult, run_preposted
from repro.workloads.unexpected import (
    UnexpectedParams,
    UnexpectedResult,
    run_unexpected,
)
from repro.workloads.sweep import (
    dump_telemetry,
    nic_preset,
    PRESETS,
    run_sweep,
    SweepRow,
    SweepSpec,
    telemetry_report,
)

__all__ = [
    "HaloParams",
    "HaloResult",
    "run_halo",
    "PingPongParams",
    "run_pingpong",
    "PrepostedParams",
    "PrepostedResult",
    "run_preposted",
    "UnexpectedParams",
    "UnexpectedResult",
    "run_unexpected",
    "dump_telemetry",
    "nic_preset",
    "PRESETS",
    "run_sweep",
    "SweepRow",
    "SweepSpec",
    "telemetry_report",
]
