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

Run the CI smoke (asserts a 1% point completes with retries, a
:data:`STORM_LOSS_RATE` point deterministically raises
``retransmit_storm``, and the zero-fault control stays finding-free)::

    PYTHONPATH=src python -m repro.workloads.faulty --smoke
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.network.faults import FaultConfig
from repro.obs.health import has_finding
from repro.workloads.sweep import SweepSpec, run_sweep

#: the swept packet drop rates (per-packet probability)
LOSS_RATES: Tuple[float, ...] = (0.0, 1e-3, 1e-2)

#: loss heavy enough that retransmissions cluster into a storm window
#: (the smoke's deterministic ``retransmit_storm`` trigger)
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
    return SweepSpec.preposted(
        presets,
        queue_lengths,
        fractions,
        iterations=iterations,
        warmup=warmup,
        telemetry=telemetry,
        faults=FaultConfig(seed=seed, drop_rate=loss_rate),
    )


def run_loss_sweep(
    loss_rates: Sequence[float] = LOSS_RATES, **spec_kwargs
) -> List[Tuple[float, List]]:
    """Run the Figure-5 grid at each loss rate; ``[(rate, rows), ...]``."""
    return [
        (rate, run_sweep(faulty_spec(rate, **spec_kwargs)))
        for rate in loss_rates
    ]


def _retransmits(rows) -> int:
    """Total reliability-layer retransmissions across a sweep's rows."""
    total = 0
    for row in rows:
        for key, value in (row.metrics or {}).items():
            if key.endswith(".rel/retransmits"):
                total += int(value)
    return total


def _smoke() -> None:
    """The CI gate (everything deterministic under the pinned seed):

    * one Figure-5 point at 1% loss completes with retries > 0;
    * the same point at :data:`STORM_LOSS_RATE` raises a
      ``retransmit_storm`` health finding;
    * the zero-fault control run yields no findings at all.
    """
    point = dict(
        presets=("baseline",), queue_lengths=(8,), iterations=40, warmup=2
    )
    rows = run_sweep(faulty_spec(1e-2, **point))
    assert len(rows) == 1 and rows[0].latency_ns > 0, rows
    retransmits = _retransmits(rows)
    assert retransmits > 0, (
        "1% loss produced no retransmissions -- fault injection or "
        "recovery is not wired up"
    )
    (stormy,) = run_sweep(faulty_spec(STORM_LOSS_RATE, **point))
    assert stormy.health is not None and stormy.health["findings"], (
        f"{STORM_LOSS_RATE:.0%} loss produced no health findings -- "
        "the watchdog battery is not wired up"
    )
    assert has_finding(stormy.health["findings"], "retransmit_storm"), (
        "heavy loss did not raise retransmit_storm; findings: "
        f"{stormy.health['findings']}"
    )
    (control,) = run_sweep(faulty_spec(0.0, **point))
    assert control.health == {"verdict": "healthy", "findings": []}, (
        f"zero-fault control is not clean: {control.health}"
    )
    print(
        f"faulty smoke OK: preposted baseline q=8 at 1% loss -> "
        f"{rows[0].latency_ns:.1f} ns median, {retransmits} retransmits; "
        f"{STORM_LOSS_RATE:.0%} loss -> {stormy.health['verdict']} "
        f"({', '.join(sorted({f['code'] for f in stormy.health['findings']}))}); "
        "zero-fault control healthy"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        _smoke()
    else:
        print(__doc__)
