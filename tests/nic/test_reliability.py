"""The NIC reliability layer: recovery under every fault class, retry
exhaustion, and mid-run degradation off a stalled ALPU."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.network.fabric import Fabric
from repro.network.faults import FaultConfig
from repro.network.packet import EAGER, Packet
from repro.nic.alpu_device import AlpuFaultConfig
from repro.nic.driver import DriverConfig
from repro.nic.nic import NicConfig
from repro.nic.reliability import (
    ReliabilityConfig,
    ReliabilityLayer,
    RetryExhaustedError,
)
from repro.obs import Telemetry
from repro.sim.engine import Engine, SimulationError
from repro.sim.units import us
from repro.workloads.preposted import PrepostedParams, run_preposted

PARAMS = PrepostedParams(
    queue_length=8, traverse_fraction=1.0, iterations=12, warmup=2
)


def reliable(nic: NicConfig, **kwargs) -> NicConfig:
    return dataclasses.replace(
        nic, reliability=ReliabilityConfig(enabled=True, **kwargs)
    )


def counter_sum(snapshot, suffix):
    return sum(
        value for key, value in snapshot.items() if key.endswith(suffix)
    )


def run_faulty(faults, nic=None, *, tracing=False):
    bundle = Telemetry(tracing=tracing)
    nic = reliable(nic if nic is not None else NicConfig.baseline())
    result = run_preposted(nic, PARAMS, telemetry=bundle, faults=faults)
    return result, bundle


# ---------------------------------------------------------------- recovery
def test_drops_are_retransmitted_and_every_message_completes():
    result, bundle = run_faulty(FaultConfig(seed=11, drop_rate=0.05))
    snapshot = bundle.snapshot()
    assert len(result.latencies_ns) == PARAMS.iterations
    assert counter_sum(snapshot, "/faults_dropped") > 0
    assert counter_sum(snapshot, ".rel/retransmits") > 0


def test_duplicates_are_dropped_exactly_once_delivered():
    result, bundle = run_faulty(FaultConfig(seed=5, duplicate_rate=0.2))
    snapshot = bundle.snapshot()
    assert len(result.latencies_ns) == PARAMS.iterations
    assert counter_sum(snapshot, "/faults_duplicated") > 0
    assert counter_sum(snapshot, ".rel/duplicates_dropped") > 0


def test_corruption_is_caught_nacked_and_recovered():
    result, bundle = run_faulty(FaultConfig(seed=9, corrupt_rate=0.05))
    snapshot = bundle.snapshot()
    assert len(result.latencies_ns) == PARAMS.iterations
    assert counter_sum(snapshot, "/faults_corrupted") > 0
    assert counter_sum(snapshot, ".rel/corrupt_dropped") > 0


def test_reordering_is_absorbed_by_the_rx_buffer():
    result, bundle = run_faulty(
        FaultConfig(seed=2, reorder_rate=0.1, reorder_delay_ps=2_000_000)
    )
    snapshot = bundle.snapshot()
    assert len(result.latencies_ns) == PARAMS.iterations
    assert counter_sum(snapshot, "/faults_delayed") > 0


def test_mixed_fault_soup_still_completes():
    result, _ = run_faulty(
        FaultConfig(
            seed=13,
            drop_rate=0.04,
            duplicate_rate=0.04,
            reorder_rate=0.04,
            corrupt_rate=0.04,
        )
    )
    assert len(result.latencies_ns) == PARAMS.iterations


# ----------------------------------------------------------------- lifecycle
def test_retransmitted_messages_keep_a_monotone_lifecycle():
    _, bundle = run_faulty(FaultConfig(seed=11, drop_rate=0.05), tracing=True)
    lifecycles = bundle.lifecycles()
    retransmitted = [
        lc for lc in lifecycles if any(m.stage == "retransmit" for m in lc.marks)
    ]
    assert retransmitted, "seed 11 at 5% loss must retransmit something"
    for lc in lifecycles:
        times = [mark.time_ps for mark in lc.marks]
        assert times == sorted(times), f"non-monotone lifecycle: {lc.marks}"
    # dropped-then-retransmitted pings still complete
    pings = [lc for lc in lifecycles if lc.label == "ping"]
    assert pings and all(lc.complete for lc in pings)


# ----------------------------------------------------------- ACK vs timer
def two_layers(ack_timeout_ps):
    """Two bare reliability layers joined by a two-node crossbar."""
    engine = Engine()
    fabric = Fabric(engine, 2)
    config = ReliabilityConfig(enabled=True, ack_timeout_ps=ack_timeout_ps)
    layers, accepted = [], []
    for node in range(2):
        nic = SimpleNamespace(
            engine=engine,
            name=f"nic{node}",
            fabric=fabric,
            node_id=node,
            admission=None,
            accept_packet=accepted.append,
        )
        layer = ReliabilityLayer(nic, config)
        fabric.bind_receiver(node, layer.on_wire_arrival)
        layers.append(layer)
    return engine, layers, accepted


@pytest.mark.parametrize("ack_timeout_ps, retransmits", [(us(2), 0), (300_000, 1)])
def test_ack_before_the_deadline_means_no_retransmit(ack_timeout_ps, retransmits):
    """The one-hop round trip takes about 430 ns: a 2 us timer is
    cancelled by the ACK and never resends; a 300 ns one fires once, and
    the ACK of the first copy cancels the re-armed (600 ns) timer."""
    engine, (sender, receiver), accepted = two_layers(ack_timeout_ps)
    sender.send(Packet(EAGER, 0, 1, match_bits=5, payload_bytes=0, send_id=1))
    engine.run()
    assert engine.now >= ack_timeout_ps  # the clock reached the deadline
    assert sender.retransmits == retransmits
    assert sender.unacked == 0
    assert sender._timers.armed == 0
    assert [p.send_id for p in accepted] == [1]


# ------------------------------------------------------------ retry budget
def test_retry_budget_exhaustion_raises():
    faults = FaultConfig(seed=1, drop_rate=1.0)  # the wire eats everything
    nic = reliable(NicConfig.baseline(), max_retries=2, ack_timeout_ps=us(1))
    with pytest.raises((RetryExhaustedError, RuntimeError)) as excinfo:
        run_preposted(nic, PARAMS, faults=faults)
    # surfaced directly from the engine or wrapped by the world's runner
    assert isinstance(excinfo.value, SimulationError) or isinstance(
        excinfo.value.__cause__, SimulationError
    )


# ----------------------------------------------------- graceful degradation
def stall_nic(at_ps=5_000_000, stall_budget=3, timeout_ps=us(5)) -> NicConfig:
    nic = NicConfig.with_alpu(total_cells=128, block_size=16)
    driver = DriverConfig(
        result_timeout_ps=timeout_ps, stall_budget=stall_budget
    )
    return dataclasses.replace(
        nic,
        alpu_fault=AlpuFaultConfig(mode="stall", at_ps=at_ps),
        posted_driver=driver,
        unexpected_driver=driver,
    )


def test_alpu_stall_degrades_to_list_backend_mid_run():
    bundle = Telemetry(tracing=False)
    result = run_preposted(stall_nic(), PARAMS, telemetry=bundle)
    # the run survived the stall...
    assert len(result.latencies_ns) == PARAMS.iterations
    snapshot = bundle.snapshot()
    assert counter_sum(snapshot, "/result_timeouts") > 0
    # both NICs carry a faulted ALPU pair, so both degrade exactly once
    assert counter_sum(snapshot, "fw/backend_degraded") == 2


def test_degraded_firmware_runs_the_software_backend():
    from repro.mpi.world import MpiWorld, WorldConfig

    # assemble a world directly so the firmware object stays inspectable
    world = MpiWorld(WorldConfig(num_ranks=2, nic=stall_nic()))
    total = PARAMS.warmup + PARAMS.iterations

    def sender(mpi):
        yield from mpi.init()
        for i in range(total):
            yield from mpi.send(dest=1, tag=i, size=0)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        for i in range(total):
            yield from mpi.recv(source=0, tag=i, size=0)
        yield from mpi.finalize()

    world.run({0: sender, 1: receiver})
    firmware = world.nics[1].firmware
    assert firmware.degraded
    assert firmware.backend.name == "list"
    assert world.nics[1].alpu_offline
    for device in world.nics[1].alpu_devices:
        assert not device.hw_delivery_enabled


def test_zero_fault_reliability_layer_still_completes():
    """Reliability on, perfect wire: pure overhead path, still correct."""
    result, bundle = run_faulty(FaultConfig())
    snapshot = bundle.snapshot()
    assert len(result.latencies_ns) == PARAMS.iterations
    assert counter_sum(snapshot, ".rel/retransmits") == 0
    assert counter_sum(snapshot, ".rel/acks_sent") > 0
