"""The fault model: seeded determinism, fabric behaviour, bit-identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import Fabric
from repro.network.faults import FaultConfig, FaultModel, Verdict
from repro.network.packet import Packet, PacketKind, header_checksum
from repro.sim.engine import Engine
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import nic_preset
from repro.workloads.unexpected import UnexpectedParams, run_unexpected


def packet(src=0, dst=1, kind=PacketKind.EAGER, payload=0, match_bits=0, **kwargs):
    return Packet(
        kind=kind,
        src=src,
        dst=dst,
        match_bits=match_bits,
        payload_bytes=payload,
        **kwargs,
    )


# ------------------------------------------------------------- configuration
def test_rates_must_be_probabilities():
    with pytest.raises(ValueError, match="drop_rate"):
        FaultConfig(drop_rate=1.5)
    with pytest.raises(ValueError, match="corrupt_rate"):
        FaultConfig(corrupt_rate=-0.1)


def test_rates_must_partition_one_draw():
    with pytest.raises(ValueError, match="sum"):
        FaultConfig(drop_rate=0.6, duplicate_rate=0.6)


def test_enabled_reflects_any_nonzero_rate():
    assert not FaultConfig().enabled
    assert FaultConfig(drop_rate=1e-3).enabled
    assert FaultConfig(reorder_rate=0.5).enabled


# ---------------------------------------------------------------- determinism
@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    rates=st.tuples(
        st.floats(0, 0.25), st.floats(0, 0.25), st.floats(0, 0.25), st.floats(0, 0.25)
    ),
    npackets=st.integers(min_value=1, max_value=200),
)
def test_identical_seeds_give_identical_verdicts(seed, rates, npackets):
    drop, dup, reorder, corrupt = rates
    config = FaultConfig(
        seed=seed,
        drop_rate=drop,
        duplicate_rate=dup,
        reorder_rate=reorder,
        corrupt_rate=corrupt,
    )
    a, b = FaultModel(config), FaultModel(config)
    pkt = packet()
    verdicts_a = [a.judge(pkt) for _ in range(npackets)]
    verdicts_b = [b.judge(pkt) for _ in range(npackets)]
    assert verdicts_a == verdicts_b


def test_idle_model_never_draws_from_its_rng():
    model = FaultModel(FaultConfig(seed=3))
    state = model._rng.getstate()
    for _ in range(50):
        assert model.judge(packet()) is Verdict.DELIVER
    assert model._rng.getstate() == state


# ------------------------------------------------------------ fabric verdicts
def fabric_with(config):
    engine = Engine()
    return engine, Fabric(engine, 2, faults=FaultModel(config))


def test_dropped_packet_never_arrives():
    engine, fabric = fabric_with(FaultConfig(seed=0, drop_rate=1.0))
    fabric.inject(packet())
    engine.run()
    assert len(fabric.rx_fifo(1)) == 0
    assert fabric.fault_totals["dropped"] == 1


def test_duplicated_packet_arrives_twice():
    engine, fabric = fabric_with(FaultConfig(seed=0, duplicate_rate=1.0))
    fabric.inject(packet())
    engine.run()
    assert len(fabric.rx_fifo(1)) == 2


def test_delayed_packet_is_overtaken():
    config = FaultConfig(seed=0, reorder_rate=1.0, reorder_delay_ps=1_000_000)
    engine = Engine()
    model = FaultModel(config)
    fabric = Fabric(engine, 2, faults=model)
    fabric.inject(packet(send_id=1))
    # disarm the model so the second packet sails through untouched
    fabric.faults = None
    fabric.inject(packet(send_id=2))
    engine.run()
    assert fabric.fault_totals["delayed"] == 1
    arrivals = [fabric.rx_fifo(1).pop(), fabric.rx_fifo(1).pop()]
    assert [p.send_id for p in arrivals] == [2, 1]


def test_corruption_flips_match_bits_and_stales_the_checksum():
    engine, fabric = fabric_with(FaultConfig(seed=0, corrupt_rate=1.0))
    sent = fabric.inject(packet(match_bits=0b1010))
    engine.run()
    delivered = fabric.rx_fifo(1).pop()
    assert delivered.match_bits != 0b1010
    assert header_checksum(delivered) != delivered.checksum
    assert sent.match_bits == delivered.match_bits


def test_no_model_is_the_historical_path():
    engine = Engine()
    fabric = Fabric(engine, 2)
    fabric.inject(packet())
    engine.run()
    assert len(fabric.rx_fifo(1)) == 1


# ----------------------------------------------------- end-to-end bit-identity
FAST = dict(iterations=4, warmup=1)

#: the four pinned BENCH points (see tests/obs/test_zero_perturbation.py)
PINNED = {
    ("preposted", "baseline"): [956.0] * 4,
    ("preposted", "alpu128"): [692.0] * 4,
    ("unexpected", "baseline"): [634.0] * 4,
    ("unexpected", "alpu128"): [692.0] * 4,
}


@pytest.mark.parametrize("workload,preset", sorted(PINNED))
def test_zero_rate_fault_model_is_bit_identical(workload, preset):
    """An attached-but-idle FaultModel must not move a single latency."""
    nic = nic_preset(preset)
    idle = FaultConfig()  # all rates zero
    if workload == "preposted":
        params = PrepostedParams(queue_length=24, traverse_fraction=1.0, **FAST)
        result = run_preposted(nic, params, faults=idle)
    else:
        params = UnexpectedParams(queue_length=16, **FAST)
        result = run_unexpected(nic, params, faults=idle)
    assert result.latencies_ns == PINNED[(workload, preset)]
