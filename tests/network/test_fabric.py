"""Unit tests for packets and the fabric."""

import pytest

from repro.network.fabric import Fabric, FabricConfig
from repro.network.packet import HEADER_BYTES, Packet, PacketKind
from repro.sim.engine import Engine


def packet(src=0, dst=1, kind=PacketKind.EAGER, payload=0, **kwargs):
    return Packet(
        kind=kind, src=src, dst=dst, match_bits=0, payload_bytes=payload, **kwargs
    )


def test_wire_bytes_by_kind():
    assert packet(kind=PacketKind.EAGER, payload=100).wire_bytes == HEADER_BYTES + 100
    assert packet(kind=PacketKind.RNDV_RTS, payload=100).wire_bytes == HEADER_BYTES
    assert packet(kind=PacketKind.RNDV_CTS).wire_bytes == HEADER_BYTES
    assert (
        packet(kind=PacketKind.RNDV_DATA, payload=64).wire_bytes == HEADER_BYTES + 64
    )


def test_delivery_after_wire_latency():
    engine = Engine()
    fabric = Fabric(engine, 2)
    fabric.inject(packet())
    engine.run()
    assert engine.now == 200_000 + round(HEADER_BYTES / 0.002)
    assert len(fabric.rx_fifo(1)) == 1


def test_per_pair_ordering_with_mixed_sizes():
    """A small packet sent after a large one must not overtake it."""
    engine = Engine()
    fabric = Fabric(engine, 2)
    fabric.inject(packet(payload=4096, send_id=1))
    fabric.inject(packet(payload=0, send_id=2))
    engine.run()
    first = fabric.rx_fifo(1).pop()
    second = fabric.rx_fifo(1).pop()
    assert (first.send_id, second.send_id) == (1, 2)
    assert first.payload_bytes == 4096


def test_pair_packet_counts_are_per_pair():
    engine = Engine()
    fabric = Fabric(engine, 3)
    fabric.inject(packet(src=0, dst=1))
    fabric.inject(packet(src=0, dst=2))
    fabric.inject(packet(src=0, dst=1))
    fabric.inject(packet(src=2, dst=0))
    counts = {
        (pair["src"], pair["dst"]): pair["packets"]
        for pair in fabric.snapshot()["pairs"]
    }
    # only pairs that carried traffic appear, in (src, dst) order
    assert counts == {(0, 1): 2, (0, 2): 1, (2, 0): 1}
    assert list(counts) == sorted(counts)


def test_inject_sends_the_packet_itself():
    """Packets are frozen, so the fabric commits the caller's object to
    the wire instead of a copy."""
    engine = Engine()
    fabric = Fabric(engine, 2)
    sent = packet(send_id=7)
    assert fabric.inject(sent) is sent
    engine.run()
    assert fabric.rx_fifo(1).pop() is sent


def test_different_sources_can_overlap():
    engine = Engine()
    fabric = Fabric(engine, 3)
    fabric.inject(packet(src=0, dst=2, payload=4096))
    fabric.inject(packet(src=1, dst=2, payload=4096))
    engine.run()
    # both large packets arrive at the same time: no shared bottleneck
    assert len(fabric.rx_fifo(2)) == 2


def test_rx_subscription_fires_on_delivery():
    engine = Engine()
    fabric = Fabric(engine, 2)
    seen = []
    fabric.subscribe_rx(1, seen.append)
    fabric.inject(packet())
    assert seen == []  # not before the wire latency
    engine.run()
    assert len(seen) == 1


def test_bad_node_ids_rejected():
    fabric = Fabric(Engine(), 2)
    with pytest.raises(ValueError):
        fabric.inject(packet(src=5))
    with pytest.raises(ValueError):
        fabric.inject(packet(dst=5))
    with pytest.raises(ValueError):
        Fabric(Engine(), 0)


def test_custom_config():
    engine = Engine()
    fabric = Fabric(engine, 2, FabricConfig(wire_latency_ps=1000, bandwidth_bytes_per_ps=1.0))
    fabric.inject(packet(payload=0))
    engine.run()
    assert engine.now == 1000 + HEADER_BYTES
