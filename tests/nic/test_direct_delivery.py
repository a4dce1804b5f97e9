"""Per-node fabric receivers: reliability NICs take wire arrivals directly;
everything else keeps the rx FIFO + subscriber delivery."""

import dataclasses

import pytest

from repro.network.fabric import Fabric
from repro.network.packet import Packet, PacketKind
from repro.nic.nic import Nic, NicConfig
from repro.nic.reliability import ReliabilityConfig
from repro.sim.engine import Engine
from repro.sim.fifo import Fifo
from tests.nic.test_reliability_pins import run_soup_pin, run_storm_pin


def eager(src=0, dst=1):
    return Packet(PacketKind.EAGER, src=src, dst=dst, match_bits=7, payload_bytes=0)


def build_nic(reliable: bool):
    engine = Engine()
    fabric = Fabric(engine, 2)
    config = NicConfig.baseline()
    if reliable:
        config = dataclasses.replace(
            config, reliability=ReliabilityConfig(enabled=True)
        )
    nic = Nic(engine, 1, fabric, Fifo(name="completions"), config)
    return engine, fabric, nic


def assert_direct_delivery(world):
    fabric = world.fabric
    for nic in world.nics:
        assert nic.reliability is not None
        assert fabric.rx_fifo(nic.node_id).total_pushed == 0
    faults = fabric.fault_totals
    assert fabric.packets_delivered == (
        fabric.packets_injected - faults["dropped"] + faults["duplicated"]
    )
    assert fabric.in_flight == 0


def test_storm_never_touches_the_wire_fifos(monkeypatch):
    _, _, world = run_storm_pin(monkeypatch)
    assert world.fabric.packets_delivered == 4720
    assert_direct_delivery(world)


def test_fault_soup_never_touches_the_wire_fifos(monkeypatch):
    _, _, world = run_soup_pin(monkeypatch)
    assert world.fabric.fault_totals["dropped"] > 0
    assert world.fabric.fault_totals["duplicated"] > 0
    assert_direct_delivery(world)


def test_bare_fabric_pushes_before_notifying():
    engine = Engine()
    fabric = Fabric(engine, 2)
    pushed_at_callback = []
    fabric.subscribe_rx(
        1, lambda packet: pushed_at_callback.append(fabric.rx_fifo(1).total_pushed)
    )
    fabric.inject(eager())
    fabric.inject(eager())
    engine.run()
    assert pushed_at_callback == [1, 2]


def test_reliability_off_nic_pushes_before_notifying():
    engine, fabric, nic = build_nic(reliable=False)
    assert nic.rx_fifo is fabric.rx_fifo(1)
    pushed_at_callback = []
    fabric.subscribe_rx(
        1, lambda packet: pushed_at_callback.append(fabric.rx_fifo(1).total_pushed)
    )
    fabric.inject(eager())
    engine.run(until=300_000)
    assert pushed_at_callback == [1]


def test_binding_over_subscribers_is_rejected():
    fabric = Fabric(Engine(), 2)
    fabric.subscribe_rx(1, lambda packet: None)
    with pytest.raises(ValueError, match="bound receiver or rx subscribers"):
        fabric.bind_receiver(1, lambda packet: None)
    # a reliability NIC binds its node's receiver: same refusal
    with pytest.raises(ValueError, match="bound receiver or rx subscribers"):
        Nic(
            fabric.engine,
            1,
            fabric,
            Fifo(name="completions"),
            dataclasses.replace(
                NicConfig.baseline(), reliability=ReliabilityConfig(enabled=True)
            ),
        )


def test_subscribing_after_a_bind_is_rejected():
    _, fabric, _ = build_nic(reliable=True)
    with pytest.raises(ValueError, match="has a bound receiver"):
        fabric.subscribe_rx(1, lambda packet: None)
    with pytest.raises(ValueError, match="bound receiver or rx subscribers"):
        fabric.bind_receiver(1, lambda packet: None)
    # the other node is untouched
    fabric.subscribe_rx(0, lambda packet: None)


def test_bound_receiver_gets_every_landing_packet():
    engine = Engine()
    fabric = Fabric(engine, 2)
    seen = []
    fabric.bind_receiver(1, seen.append)
    sent = [fabric.inject(eager()), fabric.inject(eager())]
    engine.run()
    assert seen == sent
    assert fabric.rx_fifo(1).total_pushed == 0
    assert (fabric.packets_delivered, fabric.in_flight) == (2, 0)
