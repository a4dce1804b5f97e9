"""Processor timing models.

The paper integrates SimpleScalar's ``sim-outorder`` into its event
framework to model a 2 GHz Opteron-class host CPU and a 500 MHz
PowerPC-440-class NIC processor (Table III).  Instruction-level
out-of-order simulation is far outside what a Python reproduction can
afford per simulated nanosecond, so this subpackage substitutes a
**calibrated cost model**: firmware and host programs are real Python code
whose primitive operations charge cycles, and whose memory references flow
through the :mod:`repro.memory` hierarchy for hit/miss-dependent stalls.

Calibration targets are the paper's own measurements rather than the
microarchitecture: ~15 ns per traversed queue entry while the list is
cache-resident and ~64 ns per entry once it is not (Section VI-B), with
load-to-use latencies in Table III's 30-32 (NIC) and 85-90 (host) cycle
bands.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "params": (
            "ProcessorParams",
            "CPU_PARAMS",
            "NIC_PARAMS",
            "TABLE_III_ROWS",
            "make_host_memory",
            "make_nic_memory",
        ),
        "costmodel": ("NicCostModel", "HostCostModel"),
        "processor": ("Processor",),
    },
)
