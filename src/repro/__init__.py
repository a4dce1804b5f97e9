"""repro -- reproduction of "A Hardware Acceleration Unit for MPI Queue
Processing" (Brightwell, Hemmert, Murphy, Rodrigues, Underwood; IPDPS 2005).

Layers (bottom up):

* :mod:`repro.sim` -- component-based discrete-event simulation framework
  (the Enkidu substitute).
* :mod:`repro.memory` -- caches, DRAM with open-row contention, SRAM.
* :mod:`repro.proc` -- calibrated host-CPU and NIC-processor cost models
  (the SimpleScalar substitute; Table III parameters).
* :mod:`repro.core` -- **the paper's contribution**: the ALPU associative
  list processing unit (the packed cell array, block compaction, the
  Fig. 3 state machine, and the Tables I/II command protocol).
* :mod:`repro.network` -- wire/fabric models (200 ns, Table III).
* :mod:`repro.nic` -- NIC assembly: firmware progress loop, the five
  queues, DMA engines, and the ALPU driver heuristics of Section IV.
* :mod:`repro.mpi` -- the MPI-1.2 subset of Fig. 4 running on simulated
  nodes.
* :mod:`repro.fpga` -- analytical FPGA area/clock model (Tables IV/V).
* :mod:`repro.workloads` -- the benchmarks of Section V-A (preposted-queue
  and unexpected-queue latency) and the harness that runs them.
* :mod:`repro.analysis` -- curve fitting and table formatting for the
  experiment reports.
"""

from repro.core import (
    Alpu,
    AlpuConfig,
    AlpuTimingModel,
    MatchEntry,
    MatchFormat,
    MatchRequest,
    ANY_SOURCE,
    ANY_TAG,
)

__version__ = "1.0.0"

__all__ = [
    "Alpu",
    "AlpuConfig",
    "AlpuTimingModel",
    "MatchEntry",
    "MatchFormat",
    "MatchRequest",
    "ANY_SOURCE",
    "ANY_TAG",
    "__version__",
]
