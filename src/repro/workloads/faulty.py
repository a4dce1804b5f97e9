"""Figure 5 under a lossy wire: the fault-injection sweep preset.

Reproduces the Figure 5 comparison points (baseline vs. ALPU receiver)
with the fabric dropping packets at configurable rates and the NICs'
link-level retransmission layer recovering every loss.  The default grid
sweeps :data:`LOSS_RATES` = 0 / 1e-3 / 1e-2 -- the zero-loss row is the
control: with the fault model attached but idle, its latencies match the
dedicated reliability-enabled no-fault run bit for bit.

Every telemetry row carries the watchdog verdict
(:mod:`repro.obs.health`), so loss-sweep campaigns filter by health --
``retransmit_storm`` rows versus clean recoveries -- instead of
eyeballing retransmit counters.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.network.faults import FaultConfig
from repro.workloads.sweep import SweepSpec, run_sweep

#: the swept packet drop rates (per-packet probability)
LOSS_RATES: Tuple[float, ...] = (0.0, 1e-3, 1e-2)

#: loss heavy enough that retransmissions cluster into a storm window
#: (a deterministic ``retransmit_storm`` trigger under the default seed)
STORM_LOSS_RATE = 0.1

#: default seed; any fixed value gives reproducible loss patterns
DEFAULT_SEED = 2005


def faulty_spec(
    loss_rate: float,
    *,
    presets: Sequence[str] = ("baseline", "alpu128"),
    queue_lengths: Sequence[int] = (4, 16),
    fractions: Sequence[float] = (1.0,),
    iterations: int = 12,
    warmup: int = 3,
    seed: int = DEFAULT_SEED,
    telemetry: bool = True,
) -> SweepSpec:
    """One Figure-5 grid at one packet-loss rate.

    The spec carries the fault configuration, so
    :func:`~repro.workloads.sweep.run_point` enables the NICs'
    reliability layer on every point.
    """
    spec = SweepSpec.preposted(
        presets,
        queue_lengths,
        fractions,
        iterations=iterations,
        warmup=warmup,
        telemetry=telemetry,
    )
    return dataclasses.replace(
        spec, faults=FaultConfig(seed=seed, drop_rate=loss_rate)
    )


def run_loss_sweep(
    loss_rates: Sequence[float] = LOSS_RATES, **spec_kwargs
) -> List[Tuple[float, List]]:
    """Run the Figure-5 grid at each loss rate; ``[(rate, rows), ...]``."""
    return [
        (rate, run_sweep(faulty_spec(rate, **spec_kwargs)))
        for rate in loss_rates
    ]
