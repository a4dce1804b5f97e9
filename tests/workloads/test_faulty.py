"""The faulty sweep preset: completion under loss, health verdicts,
the loss-rate sweep."""

from repro.obs.health import has_finding, verdict_of
from repro.workloads.faulty import (
    LOSS_RATES,
    STORM_LOSS_RATE,
    faulty_spec,
    run_loss_sweep,
)
from repro.workloads.sweep import run_sweep


def _retransmits(rows) -> int:
    """Total reliability-layer retransmissions across a sweep's rows."""
    total = 0
    for row in rows:
        for key, value in row.report["metrics"].items():
            if key.endswith(".rel/retransmits"):
                total += int(value)
    return total


def test_loss_rates_are_the_figure_5_points():
    assert LOSS_RATES == (0.0, 1e-3, 1e-2)


def test_tiny_faulty_sweep_completes_with_retransmits():
    spec = faulty_spec(
        1e-2, presets=("baseline",), queue_lengths=(4,), iterations=30, warmup=2
    )
    rows = run_sweep(spec)
    assert len(rows) == 1
    assert rows[0].latency_ns > 0
    assert _retransmits(rows) > 0


def test_zero_loss_faulty_sweep_sees_no_retransmits():
    spec = faulty_spec(
        0.0, presets=("baseline",), queue_lengths=(4,), iterations=6, warmup=1
    )
    rows = run_sweep(spec)
    assert rows[0].latency_ns > 0
    assert _retransmits(rows) == 0


def test_run_loss_sweep_runs_one_grid_per_rate():
    point = dict(presets=("baseline",), queue_lengths=(4,), iterations=4, warmup=1)
    results = run_loss_sweep((0.0, 1e-2), **point)
    assert [rate for rate, _ in results] == [0.0, 1e-2]
    for rate, rows in results:
        assert rows == run_sweep(faulty_spec(rate, **point))


def test_faulty_sweep_rows_are_reproducible():
    spec = faulty_spec(
        1e-2, presets=("baseline",), queue_lengths=(4,), iterations=10, warmup=1
    )
    assert run_sweep(spec) == run_sweep(spec)


def test_zero_fault_rows_carry_a_clean_health_verdict():
    spec = faulty_spec(
        0.0, presets=("baseline",), queue_lengths=(4,), iterations=6, warmup=1
    )
    (row,) = run_sweep(spec)
    health = row.report["health"]
    assert health == {"verdict": "healthy", "findings": []}
    assert verdict_of(health["findings"]) == "healthy"


def test_storm_loss_rate_raises_retransmit_storm_deterministically():
    point = dict(
        presets=("baseline",), queue_lengths=(8,), iterations=40, warmup=2
    )
    (row,) = run_sweep(faulty_spec(STORM_LOSS_RATE, **point))
    health = row.report["health"]
    assert health is not None
    assert health["verdict"] == "warning"
    assert has_finding(health["findings"], "retransmit_storm")
    # findings are JSON-shaped dicts with the full evidence span
    finding = next(
        f for f in health["findings"] if f["code"] == "retransmit_storm"
    )
    assert finding["value"] >= finding["threshold"]
    assert finding["end_ps"] > finding["start_ps"]
    # deterministic under the pinned seed: a rerun reports the same health
    (again,) = run_sweep(faulty_spec(STORM_LOSS_RATE, **point))
    assert again.report["health"] == health


def test_telemetry_off_means_no_report():
    spec = faulty_spec(
        0.0,
        presets=("baseline",),
        queue_lengths=(4,),
        iterations=6,
        warmup=1,
        telemetry=False,
    )
    (row,) = run_sweep(spec)
    assert row.report is None
