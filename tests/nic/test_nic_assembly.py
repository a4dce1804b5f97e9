"""Tests for NIC assembly and its hardware hooks."""


from repro.core import CellKind
from repro.network.fabric import Fabric
from repro.network.packet import Packet, PacketKind
from repro.nic.host_interface import PostRecv, PostSend
from repro.nic.nic import Nic, NicConfig
from repro.nic.queues import EntryKind
from repro.sim.engine import Engine
from repro.sim.fifo import Fifo


def build(config=None):
    engine = Engine()
    fabric = Fabric(engine, 2)
    completions = Fifo(name="completions")
    nic = Nic(engine, 1, fabric, completions, config or NicConfig.baseline())
    return engine, fabric, nic


def test_baseline_nic_has_no_alpu():
    _, _, nic = build()
    assert nic.posted_device is None
    assert nic.unexpected_device is None
    assert nic.posted_driver is None


def test_with_alpu_builds_both_flavours():
    _, _, nic = build(NicConfig.with_alpu(128, 16))
    assert nic.posted_device.alpu.config.kind is CellKind.POSTED_RECEIVE
    assert nic.unexpected_device.alpu.config.kind is CellKind.UNEXPECTED
    assert nic.posted_device.alpu.capacity == 128


def test_match_packets_replicate_to_the_posted_alpu():
    engine, fabric, nic = build(NicConfig.with_alpu(32, 8))
    fabric.inject(Packet(PacketKind.EAGER, src=0, dst=1, match_bits=7, payload_bytes=0))
    fabric.inject(Packet(PacketKind.RNDV_CTS, src=0, dst=1, match_bits=0, payload_bytes=0))
    engine.run(until=300_000)
    # only the EAGER header was replicated; the CTS is protocol traffic
    device = nic.posted_device
    assert device.header_fifo.total_pushed == 1
    # its one response went out through the result FIFO
    assert device.result_fifo.total_pushed == 1
    assert list(nic.posted_pushed_flags) in ([True], [])  # consumed by fw or pending


def test_post_recv_replicates_to_the_unexpected_alpu():
    engine, fabric, nic = build(NicConfig.with_alpu(32, 8))
    nic.deliver_host_command(
        PostRecv(req_id=1, context=1, source=0, tag=5, size=0, buffer_addr=0)
    )
    assert list(nic.unexpected_pushed_flags) == [True]
    assert nic.unexpected_device.header_fifo.total_pushed == 1


def test_post_send_does_not_touch_the_unexpected_alpu():
    engine, fabric, nic = build(NicConfig.with_alpu(32, 8))
    nic.deliver_host_command(
        PostSend(req_id=1, dest=0, context=1, tag=5, size=0, buffer_addr=0)
    )
    assert len(nic.unexpected_pushed_flags) == 0
    assert nic.unexpected_device.header_fifo.total_pushed == 0


def test_kick_pulses_on_every_hardware_event():
    engine, fabric, nic = build()
    before = nic.kick.pulse_count
    fabric.inject(Packet(PacketKind.EAGER, src=0, dst=1, match_bits=0, payload_bytes=0))
    engine.run(until=300_000)
    assert nic.kick.pulse_count > before


def test_queues_share_one_allocator():
    _, _, nic = build()
    entry_a = nic.posted_recv_q.allocate_entry(
        kind=EntryKind.POSTED_RECV, bits=0, mask=0, size=0
    )
    entry_b = nic.unexpected_q.allocate_entry(
        kind=EntryKind.UNEXPECTED_EAGER, bits=0, mask=0, size=0
    )
    assert entry_a.addr != entry_b.addr  # one address space, no overlap
