"""The benchmarks of Section V-A and the harness that runs them.

Every MPI workload runs through one seam, :func:`repro.workloads.runner.run`.
A workload module supplies only a plan function ``plan(params) -> Plan``:
its rank programs ``{rank: program}``, a ``summarize(world, results)``
that returns its result (a :class:`~repro.workloads.runner.Samples`,
or a subclass: ``latencies_ns``, ``mean_ns``, ``median_ns``), and the world
facts that differ (ranks per node, topology preset, deadline).  The
runner builds the simulated world, runs it and returns the summary;
it is the only code here that builds a world.
Each public ``run_x(nic, params, *, telemetry=None, faults=None)`` is
the runner bound to one plan.  A caller that passes ``telemetry`` reads
the run's metrics with ``telemetry.snapshot()``.

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
* :mod:`repro.workloads.storm`, :mod:`repro.workloads.alltoall` and
  :mod:`repro.workloads.multijob` -- the deep-queue workloads of the
  queue disciplines (wildcard storm, sparse all-to-all, a latency job
  beside an unexpected-queue hog).
* :mod:`repro.workloads.alpucore` -- the ALPU core-op microbenchmark;
  it drives one ALPU device without a world, so it stays outside the
  runner.
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
