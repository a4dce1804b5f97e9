"""Tests for the many-rank halo-exchange workload and its sweep plumbing."""

import dataclasses

import pytest

from repro.network.faults import FaultConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.telemetry import Telemetry
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.sweep import SweepSpec, nic_preset, run_sweep


def small_params(**overrides):
    kwargs = dict(ranks=8, topology="torus3d", iterations=2, warmup=1)
    kwargs.update(overrides)
    return HaloParams(**kwargs)


def test_params_validation():
    with pytest.raises(ValueError, match=">= 2 ranks"):
        HaloParams(ranks=1)
    with pytest.raises(ValueError, match="unknown topology"):
        HaloParams(topology="fat_tree")
    with pytest.raises(ValueError, match="invalid parameters"):
        HaloParams(iterations=0)


@pytest.mark.parametrize("topology", ["crossbar", "ring", "mesh2d", "torus3d"])
def test_halo_runs_on_every_preset(topology):
    result = run_halo(
        nic_preset("alpu128"), small_params(topology=topology)
    )
    assert len(result.latencies_ns) == 2  # the timed (post-warmup) iterations
    assert result.allreduce_value == 8 * 9 // 2
    assert topology in result.topology


def test_halo_deterministic_and_telemetry_free():
    """Two bare runs agree, and telemetry does not perturb latencies."""
    params = small_params()
    bare = run_halo(nic_preset("alpu128"), params)
    again = run_halo(nic_preset("alpu128"), params)
    assert bare.latencies_ns == again.latencies_ns
    bundle = Telemetry(tracing=False, timeline=True, health=True)
    instrumented = run_halo(nic_preset("alpu128"), params, telemetry=bundle)
    assert instrumented.latencies_ns == bare.latencies_ns
    assert bundle.snapshot()
    assert bundle.health_verdict() == "healthy"


def test_halo_recovers_under_faults_with_clean_control():
    params = small_params()
    nic = nic_preset("alpu128")
    nic = dataclasses.replace(nic, reliability=ReliabilityConfig(enabled=True))
    faulty = run_halo(
        nic, params, faults=FaultConfig(seed=3, drop_rate=0.02)
    )
    assert faulty.retransmits > 0
    assert faulty.allreduce_value == 8 * 9 // 2
    control = run_halo(nic, params)
    assert control.retransmits == 0
    assert control.allreduce_value == faulty.allreduce_value


def test_16_rank_sweep_serial_vs_parallel_bit_identical():
    """A 16-rank topology sweep produces identical rows serially and
    fanned out, and its torus3d point, run directly with the watchdogs
    on, is healthy, reduces to 16 * 17 / 2 and keeps the row's median."""
    spec = SweepSpec.halo(
        ("alpu128",),
        (16,),
        ("crossbar", "torus3d"),
        iterations=2,
        warmup=1,
    )
    serial = run_sweep(spec)
    fanned = run_sweep(spec, workers=2)
    assert serial == fanned
    assert [row.params["topology"] for row in serial] == ["crossbar", "torus3d"]
    bundle = Telemetry(tracing=False, timeline=True, health=True)
    torus = run_halo(
        nic_preset("alpu128"), HaloParams(**serial[1].params), telemetry=bundle
    )
    assert bundle.health_verdict() == "healthy"
    assert torus.allreduce_value == 136
    assert torus.median_ns == serial[1].latency_ns


def test_fabric_sweep_rows_carry_snapshots():
    """fabric=True threads per-hop observability through the executor:
    rows carry the fabric snapshot of the row's own topology, and
    latencies stay bit-identical to the bare sweep."""
    bare_spec = SweepSpec.halo(
        ("alpu128",), (8,), ("torus3d",), iterations=2, warmup=1
    )
    spec = dataclasses.replace(bare_spec, fabric=True)
    assert SweepSpec.halo(
        ("alpu128",), (8,), ("torus3d",), iterations=2, warmup=1, fabric=True
    ) == spec  # the factory passes the flag through
    (row,) = run_sweep(spec)
    fabric = row.report["fabric"]
    assert fabric["packets_injected"] == fabric["packets_delivered"]
    assert fabric["topology"]["preset"] == row.params["topology"] == "torus3d"
    (bare,) = run_sweep(bare_spec)
    assert bare.report is None
    assert bare.latency_ns == row.latency_ns  # zero perturbation
