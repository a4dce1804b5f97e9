"""Analytical FPGA area and timing model (Tables IV and V).

The paper prototyped the ALPU in JHDL targeting a Virtex-II Pro 100
(-5 speed grade) and reported LUTs, flip-flops, slices, clock frequency
and pipeline latency for twelve design points: {posted-receive,
unexpected} x {128, 256} cells x block size {8, 16, 32}, all at a 42-bit
match width with a mask bit per match bit and 16-bit tags.

No FPGA toolchain is available offline, so this subpackage substitutes a
**structural resource model**: flip-flops are counted from the
microarchitecture (per-cell storage, per-block registered request,
control/pipeline registers), LUTs from the compare logic and the priority
mux trees, and slices from an empirical packing fit; the clock model
reflects the 9 ns tool constraint and the deeper in-block priority mux at
block size 32.  Constants were calibrated once against the published
tables; the model reproduces every published number within ~1% and, more
importantly, reproduces the *trends* the paper discusses (FFs fall and
LUTs rise with block size; the unexpected ALPU needs ~40% fewer FFs
because masks are inputs, not storage; block size 32 misses the 9 ns
constraint).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "resources": (
            "ResourceEstimate",
            "estimate_resources",
            "cell_flipflops",
            "block_overhead_flipflops",
        ),
        "timing": ("clock_mhz", "asic_clock_mhz", "ASIC_SPEEDUP"),
        "report": (
            "DesignPoint",
            "TABLE_IV_PUBLISHED",
            "TABLE_V_PUBLISHED",
            "model_table",
            "render_table",
        ),
    },
)
