"""Tests for topologies, routing, and the routed fabric.

The two load-bearing guarantees: routes are *minimal and deterministic*
on every preset, and per-(src, dst) delivery order survives multi-hop
routing -- the network property MPI's matching semantics build on.
"""

import pytest

from repro.network.fabric import Fabric, FabricConfig
from repro.network.packet import HEADER_BYTES, Packet, PacketKind
from repro.network.topology import (
    TOPOLOGY_PRESETS,
    Topology,
    TopologyConfig,
    balanced_dims,
)
from repro.sim.engine import Engine


def packet(src=0, dst=1, payload=0, send_id=0):
    return Packet(
        kind=PacketKind.EAGER,
        src=src,
        dst=dst,
        match_bits=0,
        payload_bytes=payload,
        send_id=send_id,
    )


# ---------------------------------------------------------------- geometry
def test_balanced_dims():
    assert balanced_dims(32, 3) == (2, 4, 4)
    assert balanced_dims(16, 3) == (2, 2, 4)
    assert balanced_dims(64, 3) == (4, 4, 4)
    assert balanced_dims(12, 2) == (3, 4)
    assert balanced_dims(13, 3) == (1, 1, 13)  # prime degenerates to a ring
    with pytest.raises(ValueError):
        balanced_dims(0, 3)


def test_coords_round_trip():
    topo = Topology("torus3d", 24, dims=(2, 3, 4))
    for node in range(24):
        assert topo.index(topo.coords(node)) == node


def test_config_validation():
    with pytest.raises(ValueError, match="unknown topology"):
        TopologyConfig(preset="hypercube")
    with pytest.raises(ValueError, match="takes no dims"):
        TopologyConfig(preset="crossbar", dims=(2, 2))
    with pytest.raises(ValueError, match="needs 3 dims"):
        TopologyConfig(preset="torus3d", dims=(4, 4))
    with pytest.raises(ValueError, match="hold"):
        Topology("torus3d", 32, dims=(2, 2, 2))
    # lists (JSON round trips) normalize to tuples
    assert TopologyConfig(preset="mesh2d", dims=[2, 3]).dims == (2, 3)


def test_fabric_config_validation():
    with pytest.raises(ValueError, match="wire_latency_ps"):
        FabricConfig(wire_latency_ps=-1)
    with pytest.raises(ValueError, match="bandwidth_bytes_per_ps"):
        FabricConfig(bandwidth_bytes_per_ps=0.0)


# ----------------------------------------------------------------- routing
@pytest.mark.parametrize("preset", TOPOLOGY_PRESETS)
@pytest.mark.parametrize("num_nodes", [2, 5, 8, 12, 16])
def test_routes_are_minimal_and_deterministic(preset, num_nodes):
    topo = Topology(preset, num_nodes)
    for src in range(num_nodes):
        for dst in range(num_nodes):
            route = topo.route(src, dst)
            assert route[-1] == dst
            assert len(route) == topo.min_hops(src, dst)
            # deterministic: recomputing gives the identical path
            assert route == topo.route(src, dst)
            # every hop is a physical channel
            prev = src
            for node in route:
                assert (prev, node) in set(topo.channels)
                prev = node


def test_torus_wrap_takes_shorter_direction():
    topo = Topology("ring", 8)
    # 0 -> 6 is shorter backwards (2 hops) than forwards (6 hops)
    assert topo.route(0, 6) == [7, 6]
    # ties (distance 4) break toward +1
    assert topo.route(0, 4) == [1, 2, 3, 4]


def test_dimension_ordered_routing_fixes_lowest_axis_first():
    topo = Topology("torus3d", 16, dims=(2, 2, 4))
    src = topo.index((0, 0, 0))
    dst = topo.index((1, 1, 2))
    route = topo.route(src, dst)
    assert [topo.coords(n) for n in route] == [
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
        (1, 1, 2),
    ]


def test_crossbar_matches_historical_channel_order():
    topo = Topology("crossbar", 3)
    assert topo.channels == [
        (s, d) for s in range(3) for d in range(3)
    ]
    assert topo.diameter() == 1


# ------------------------------------------------- fabric over topologies
@pytest.mark.parametrize("preset", TOPOLOGY_PRESETS)
def test_per_pair_ordering_holds_on_every_preset(preset):
    """The MPI ordering property: packets of one (src, dst) pair arrive
    in injection order, on every topology, with staggered injections and
    mixed sizes racing through shared channels."""
    num_nodes = 12
    engine = Engine()
    fabric = Fabric(
        engine,
        num_nodes,
        FabricConfig(topology=TopologyConfig(preset=preset)),
    )
    arrivals = {}
    for dst in range(num_nodes):
        fabric.subscribe_rx(
            dst, lambda pkt, d=dst: arrivals.setdefault(d, []).append(pkt)
        )
    pairs = [
        (src, dst)
        for src in range(num_nodes)
        for dst in range(num_nodes)
        if src != dst
    ]
    # bursts of mixed sizes, staggered so injections interleave in time;
    # send_id is the burst number, i.e. the pair's injection order
    for burst, size in enumerate((4096, 0, 512)):
        for index, (src, dst) in enumerate(pairs):
            engine.schedule(
                burst * 50_000 + (index % 7) * 1_000,
                lambda s=src, d=dst, z=size, b=burst: fabric.inject(
                    packet(s, d, z, send_id=b)
                ),
            )
    engine.run()
    assert fabric.packets_delivered == len(pairs) * 3
    for dst, packets in arrivals.items():
        by_src = {}
        for pkt in packets:
            by_src.setdefault(pkt.src, []).append(pkt.send_id)
        for src, order in by_src.items():
            assert order == [0, 1, 2], (preset, src, dst, order)


def test_multi_hop_latency_is_per_hop():
    """A 2-hop route pays the store-and-forward serialization twice."""
    engine = Engine()
    config = FabricConfig(topology=TopologyConfig(preset="ring"))
    fabric = Fabric(engine, 4, config)
    assert fabric.topology.min_hops(0, 2) == 2
    fabric.inject(packet(0, 2))
    engine.run()
    per_hop = config.wire_latency_ps + round(
        HEADER_BYTES / config.bandwidth_bytes_per_ps
    )
    assert engine.now == 2 * per_hop
    assert len(fabric.rx_fifo(2)) == 1


def test_shared_channel_contention_serializes():
    """Two flows forced through one ring channel queue behind each other;
    on the crossbar the same flows ride dedicated wires and overlap."""

    def run(preset):
        engine = Engine()
        fabric = Fabric(
            engine, 4, FabricConfig(topology=TopologyConfig(preset=preset))
        )
        # 0->2 (via 1) and 1->2 both cross the 1->2 channel on the ring
        fabric.inject(packet(0, 2, 4096))
        fabric.inject(packet(1, 2, 4096))
        engine.run()
        return engine.now

    assert run("ring") > run("crossbar")


def test_injected_vs_delivered_counters():
    engine = Engine()
    fabric = Fabric(engine, 2)
    fabric.inject(packet())
    # injection happened, delivery has not: the satellite-1 distinction
    assert fabric.packets_injected == 1
    assert fabric.packets_delivered == 0
    assert fabric.in_flight == 1
    engine.run()
    assert fabric.packets_injected == 1
    assert fabric.packets_delivered == 1
    assert fabric.in_flight == 0


def test_link_accessors():
    engine = Engine()
    fabric = Fabric(
        engine, 4, FabricConfig(topology=TopologyConfig(preset="ring"))
    )
    assert fabric.link(0, 1).name == "fabric.wire0->1"
    with pytest.raises(KeyError):
        fabric.link(0, 2)  # not a physical ring channel
    # 4-node ring: 2 directed channels per node, self-channels excluded
    assert len(fabric.links) == 8


@pytest.mark.parametrize("preset,num_nodes", [("torus3d", 16), ("mesh2d", 9)])
def test_route_table_matches_per_pair_routing(preset, num_nodes):
    topology = Topology.build(TopologyConfig(preset=preset), num_nodes)
    table = topology.route_table()
    assert len(table) == num_nodes * (num_nodes - 1)
    for (src, dst), route in table.items():
        assert route == tuple(topology.route(src, dst))


def test_route_table_and_diameter_are_cached():
    topology = Topology.build(TopologyConfig(preset="torus3d"), 16)
    assert topology.route_table() is topology.route_table()
    assert topology.diameter() == topology.diameter()
    # the diameter is the longest minimal route, straight off the table
    assert topology.diameter() == max(
        len(route) for route in topology.route_table().values()
    )
