"""Fabric observability: per-hop marks, telescoping, zero perturbation.

The load-bearing guarantees of the fabric-level observability layer:

* per-hop lifecycle marks decompose every wire traversal into
  contention wait + serialization + transit budgets that telescope
  *exactly* onto the traversal's span (property-tested);
* with observability on -- or off -- the simulated schedule is
  bit-identical: marks carry computed timestamps, never events;
* fault verdicts register per link, not just at fabric scope.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.attribution import (
    HOP_STAGES,
    link_budgets,
    stage_budget,
    wire_segments,
)
from repro.network.fabric import Fabric, FabricConfig
from repro.network.faults import FaultConfig, FaultModel
from repro.network.packet import Packet, PacketKind
from repro.network.topology import TopologyConfig
from repro.obs.lifecycle import LifecycleRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine

WIRE_LATENCY_PS = 200_000


def packet(src, dst, uid, payload=256):
    return Packet(
        kind=PacketKind.EAGER,
        src=src,
        dst=dst,
        match_bits=0,
        payload_bytes=payload,
        send_id=uid,
    )


def observed_fabric(num_nodes=16, preset="torus3d", faults=None):
    """(engine, recorder, fabric) with per-hop observability on.

    Every delivery terminates the packet's lifecycle at the landing
    instant (the NIC's job in the full pipeline), so budgets fold over
    exact per-hop residencies.
    """
    recorder = LifecycleRecorder()
    engine = Engine(lifecycle=recorder)
    fabric = Fabric(
        engine,
        num_nodes,
        FabricConfig(topology=TopologyConfig(preset=preset)),
        faults=FaultModel(faults) if faults is not None else None,
        observe_hops=True,
    )
    for node in range(num_nodes):
        fabric.subscribe_rx(
            node, lambda pkt: recorder.mark_uid(pkt.send_id, "complete")
        )
    return engine, recorder, fabric


def send_one(engine, recorder, fabric, src, dst, uid, *, at_ps=0, payload=256):
    """Open a lifecycle for ``uid`` and inject at ``at_ps``."""
    recorder.begin("send", src, uid, time_ps=at_ps)
    recorder.bind_uid(src, uid, uid)
    engine.schedule(
        at_ps, lambda: fabric.inject(packet(src, dst, uid, payload))
    )


# ------------------------------------------------------------- hop marks
class TestHopMarks:
    def test_multi_hop_route_marks_every_link(self):
        engine, recorder, fabric = observed_fabric()
        route = fabric.topology.route(0, 15)
        assert len(route) > 1, "need a multi-hop pair for this test"
        send_one(engine, recorder, fabric, 0, 15, uid=1)
        engine.run()
        (lifecycle,) = recorder.lifecycles
        stages = [m.stage for m in lifecycle.marks]
        hops = len(route)
        assert stages.count("hop_wait") == hops
        assert stages.count("hop_serialize") == hops
        assert stages.count("hop_transit") == hops
        # the wire mark precedes every hop mark
        assert stages.index("wire") < stages.index("hop_wait")
        # the marks walk exactly the deterministic route, in order
        links = [
            m.detail["link"]
            for m in lifecycle.marks
            if m.stage == "hop_serialize"
        ]
        walked = [0] + route
        assert links == [
            f"fabric.wire{a}->{b}" for a, b in zip(walked, walked[1:])
        ]

    def test_crossbar_single_hop(self):
        engine, recorder, fabric = observed_fabric(num_nodes=2, preset="crossbar")
        send_one(engine, recorder, fabric, 0, 1, uid=1)
        engine.run()
        (lifecycle,) = recorder.lifecycles
        stages = [m.stage for m in lifecycle.marks]
        assert stages.count("hop_serialize") == 1

    def test_observe_hops_off_records_no_hop_marks(self):
        recorder = LifecycleRecorder()
        engine = Engine(lifecycle=recorder)
        fabric = Fabric(
            engine,
            16,
            FabricConfig(topology=TopologyConfig(preset="torus3d")),
        )
        recorder.begin("send", 0, 1)
        recorder.bind_uid(0, 1, 1)
        fabric.inject(packet(0, 15, 1))
        engine.run()
        (lifecycle,) = recorder.lifecycles
        assert "wire" in [m.stage for m in lifecycle.marks]
        assert not any(m.stage in HOP_STAGES for m in lifecycle.marks)

    def test_hop_detail_values_match_link_physics(self):
        engine, recorder, fabric = observed_fabric(num_nodes=4, preset="ring")
        send_one(engine, recorder, fabric, 0, 1, uid=1, payload=100)
        engine.run()
        (lifecycle,) = recorder.lifecycles
        link = fabric.link(0, 1)
        by_stage = {m.stage: m for m in lifecycle.marks if m.stage in HOP_STAGES}
        wire_bytes = packet(0, 1, 1, 100).wire_bytes
        assert by_stage["hop_wait"].detail["wait_ps"] == 0
        assert by_stage["hop_serialize"].detail["serialize_ps"] == (
            link.occupancy_ps(wire_bytes)
        )
        assert by_stage["hop_serialize"].detail["bytes"] == wire_bytes
        assert by_stage["hop_transit"].detail["transit_ps"] == link.latency_ps


# ----------------------------------------------------------- telescoping
class TestTelescoping:
    def test_contended_pair_decomposes_exactly(self):
        """The second packet's wait on a busy link lands in hop_wait."""
        engine, recorder, fabric = observed_fabric(num_nodes=4, preset="ring")
        send_one(engine, recorder, fabric, 0, 1, uid=1)
        send_one(engine, recorder, fabric, 0, 1, uid=2)
        engine.run()
        first, second = recorder.lifecycles
        (segment,) = wire_segments(second)
        assert segment["wire_ps"] == 0
        assert segment["hops_ps"] == segment["span_ps"]
        link = fabric.link(0, 1)
        wire_bytes = packet(0, 1, 2).wire_bytes
        waits = [
            hop["residency_ps"]
            for hop in segment["hops"]
            if hop["stage"] == "hop_wait"
        ]
        # queued behind the first packet for its full serialization
        assert waits == [link.occupancy_ps(wire_bytes)]

    def test_link_budgets_fold_by_link(self):
        engine, recorder, fabric = observed_fabric()
        send_one(engine, recorder, fabric, 0, 15, uid=1)
        send_one(engine, recorder, fabric, 0, 15, uid=2)
        engine.run()
        budgets = link_budgets(recorder.lifecycles)
        route = fabric.topology.route(0, 15)
        assert len(budgets) == len(route)
        for entry in budgets.values():
            assert entry["packets"] == 2
            assert entry["transit_ps"] == 2 * WIRE_LATENCY_PS
        # grand totals telescope into the summed wire segments
        total = sum(
            sum(
                entry[key]
                for key in (
                    "wait_ps", "serialize_ps", "transit_ps", "fault_delay_ps"
                )
            )
            for entry in budgets.values()
        )
        spans = sum(
            segment["hops_ps"]
            for lifecycle in recorder.lifecycles
            for segment in wire_segments(lifecycle)
        )
        assert total == spans

    @settings(max_examples=25)
    @given(
        preset=st.sampled_from(("crossbar", "ring", "mesh2d", "torus3d")),
        sends=st.lists(
            st.tuples(
                st.integers(0, 7),        # src
                st.integers(0, 7),        # dst
                st.integers(0, 400_000),  # injection time
                st.integers(0, 512),      # payload bytes
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_every_budget_telescopes(self, preset, sends):
        """Property: per-hop budgets sum exactly to the wire span for
        every message, on every preset, under arbitrary contention --
        and the wire stage's own residency collapses to zero."""
        engine, recorder, fabric = observed_fabric(num_nodes=8, preset=preset)
        uid = 0
        for src, dst, at_ps, payload in sends:
            if src == dst:
                continue
            uid += 1
            send_one(
                engine, recorder, fabric, src, dst,
                uid=uid, at_ps=at_ps, payload=payload,
            )
        engine.run()
        for lifecycle in recorder.lifecycles:
            budget = stage_budget(lifecycle)     # asserts total == span
            segments = wire_segments(lifecycle)  # asserts per segment
            assert segments
            assert budget.get("wire", 0) == 0


# ------------------------------------------------------ zero perturbation
class TestZeroPerturbation:
    @pytest.mark.parametrize("preset", ("crossbar", "ring", "torus3d"))
    def test_schedule_bit_identical_with_observability(self, preset):
        """Same injections, observability on vs off: identical arrival
        times, identical final clock, identical event count."""

        def run(observe):
            recorder = LifecycleRecorder() if observe else None
            engine = Engine(lifecycle=recorder)
            fabric = Fabric(
                engine,
                8,
                FabricConfig(topology=TopologyConfig(preset=preset)),
                observe_hops=observe,
            )
            arrivals = []
            for node in range(8):
                fabric.subscribe_rx(
                    node, lambda pkt, n=node: arrivals.append((engine.now, n))
                )
            for uid, (src, dst) in enumerate(
                [(0, 7), (0, 7), (3, 5), (6, 1), (0, 7)], start=1
            ):
                if observe:
                    recorder.begin("send", src, uid)
                    recorder.bind_uid(src, uid, uid)
                fabric.inject(packet(src, dst, uid))
            engine.run()
            return arrivals, engine.now, engine.events_fired

        assert run(True) == run(False)


# ------------------------------------------------------- per-link faults
class TestPerLinkFaults:
    def test_fault_verdicts_count_against_the_link(self):
        engine, recorder, fabric = observed_fabric(
            num_nodes=4,
            preset="crossbar",
            faults=FaultConfig(seed=3, drop_rate=1.0),
        )
        send_one(engine, recorder, fabric, 0, 1, uid=1)
        engine.run()
        assert fabric.fault_totals["dropped"] == 1
        assert fabric.link_faults["fabric.wire0->1"]["dropped"] == 1

    def test_totals_equal_sum_of_per_link(self):
        engine = Engine()
        fabric = Fabric(
            engine,
            4,
            FabricConfig(topology=TopologyConfig(preset="ring")),
            faults=FaultModel(
                FaultConfig(
                    seed=11, drop_rate=0.3, duplicate_rate=0.2, corrupt_rate=0.1
                )
            ),
        )
        for uid in range(40):
            fabric.inject(packet(uid % 4, (uid + 1) % 4, uid + 1))
        engine.run()
        assert any(fabric.fault_totals.values())
        for kind, total in fabric.fault_totals.items():
            assert total == sum(
                counts[kind] for counts in fabric.link_faults.values()
            )

    def test_fault_collectors_register_on_fault_runs_only(self):
        faulty_registry = MetricsRegistry()
        engine = Engine(metrics=faulty_registry)
        Fabric(
            engine,
            2,
            faults=FaultModel(FaultConfig(seed=1, drop_rate=0.5)),
        )
        assert any(
            "wire" in name and "faults_dropped" in name
            for name in faulty_registry.names()
        )
        clean_registry = MetricsRegistry()
        engine = Engine(metrics=clean_registry)
        Fabric(engine, 2)
        assert not any(
            "wire" in name and "faults" in name
            for name in clean_registry.names()
        )


# --------------------------------------------------------------- snapshot
class TestSnapshot:
    def test_snapshot_shape_and_totals(self):
        engine, recorder, fabric = observed_fabric()
        send_one(engine, recorder, fabric, 0, 15, uid=1)
        send_one(engine, recorder, fabric, 3, 2, uid=2)
        engine.run()
        snap = fabric.snapshot()
        assert snap["topology"]["preset"] == "torus3d"
        assert snap["topology"]["num_nodes"] == 16
        assert snap["topology"]["diameter"] == fabric.topology.diameter()
        assert snap["packets_injected"] == 2
        assert snap["packets_delivered"] == 2
        assert snap["in_flight"] == 0
        assert snap["wire_bytes"] == sum(
            link["bytes"] for link in snap["links"]
        )
        routes = fabric.topology.route_table()
        assert snap["pairs"], "traffic ran, the pair matrix must not be empty"
        for pair in snap["pairs"]:
            assert pair["route"] == list(routes[(pair["src"], pair["dst"])])
            assert pair["hops"] == len(pair["route"])

    def test_snapshot_is_json_serializable(self):
        engine, recorder, fabric = observed_fabric(num_nodes=4, preset="mesh2d")
        send_one(engine, recorder, fabric, 0, 3, uid=1)
        engine.run()
        json.dumps(fabric.snapshot())
