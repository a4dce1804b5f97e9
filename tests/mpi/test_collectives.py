"""Tests for the host-staged collectives (barrier / bcast / allreduce).

Correctness across rank counts (powers of two and not), every topology
preset, and the acceptance-criteria determinism runs: the same
configuration produces the same telemetry document, run after run.
"""

import dataclasses

import pytest

from repro.analysis.report import run_report
from repro.mpi.api import MpiError
from repro.mpi.world import MpiWorld, WorldConfig
from repro.network.fabric import FabricConfig
from repro.network.faults import FaultConfig
from repro.network.topology import TOPOLOGY_PRESETS, TopologyConfig
from repro.nic.nic import NicConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.telemetry import Telemetry


def make_world(num_ranks, preset="crossbar", *, telemetry=None, faults=None, nic=None):
    return MpiWorld(
        WorldConfig(
            num_ranks=num_ranks,
            nic=nic if nic is not None else NicConfig.with_alpu(total_cells=128),
            fabric=FabricConfig(topology=TopologyConfig(preset=preset)),
            faults=faults,
        ),
        telemetry=telemetry,
    )


def run_collectives(world, num_ranks, root=0):
    """Every rank: barrier, bcast, two allreduces, barrier."""

    def program(mpi):
        yield from mpi.init()
        yield from mpi.barrier()
        token = yield from mpi.bcast(
            ("payload", root) if mpi.rank == root else None, root=root, size=64
        )
        total = yield from mpi.allreduce(mpi.rank + 1, op="sum", size=8)
        top = yield from mpi.allreduce(mpi.rank * 3, op="max", size=8)
        yield from mpi.barrier()
        yield from mpi.finalize()
        return token, total, top

    return world.run({rank: program for rank in range(num_ranks)})


@pytest.mark.parametrize("num_ranks", [2, 3, 5, 8, 13, 16])
def test_collectives_correct_across_rank_counts(num_ranks):
    world = make_world(num_ranks)
    results = run_collectives(world, num_ranks)
    expected = (
        ("payload", 0),
        num_ranks * (num_ranks + 1) // 2,
        (num_ranks - 1) * 3,
    )
    assert all(value == expected for value in results.values())
    assert not world.collective_board


@pytest.mark.parametrize("preset", TOPOLOGY_PRESETS)
def test_collectives_correct_on_every_preset(preset):
    num_ranks = 12
    world = make_world(num_ranks, preset)
    results = run_collectives(world, num_ranks, root=5)
    assert all(value[0] == ("payload", 5) for value in results.values())
    assert not world.collective_board


def test_bcast_from_every_root():
    num_ranks = 6
    for root in range(num_ranks):
        world = make_world(num_ranks)

        def program(mpi, root=root):
            yield from mpi.init()
            value = yield from mpi.bcast(
                root * 100 if mpi.rank == root else None, root=root
            )
            yield from mpi.finalize()
            return value

        results = world.run({r: program for r in range(num_ranks)})
        assert set(results.values()) == {root * 100}


def test_allreduce_all_operators():
    num_ranks = 5
    cases = {"sum": 15, "prod": 120, "max": 5, "min": 1}
    for op, expected in cases.items():
        world = make_world(num_ranks)

        def program(mpi, op=op):
            yield from mpi.init()
            value = yield from mpi.allreduce(mpi.rank + 1, op=op)
            yield from mpi.finalize()
            return value

        results = world.run({r: program for r in range(num_ranks)})
        assert set(results.values()) == {expected}, op


def test_unknown_reduction_rejected():
    world = make_world(2)

    def program(mpi):
        yield from mpi.init()
        with pytest.raises(MpiError, match="unknown reduction"):
            yield from mpi.allreduce(1, op="xor")
        yield from mpi.finalize()

    world.run({0: program, 1: program})


def test_back_to_back_collectives_do_not_cross_match():
    """Pipelined collectives with no separating barrier: the per-
    collective tag blocks keep rounds of consecutive operations apart."""
    num_ranks = 4
    world = make_world(num_ranks)

    def program(mpi):
        yield from mpi.init()
        values = []
        for i in range(10):
            values.append((yield from mpi.allreduce(mpi.rank + i, op="sum")))
        yield from mpi.finalize()
        return values

    results = world.run({r: program for r in range(num_ranks)})
    base = sum(range(num_ranks))
    expected = [base + i * num_ranks for i in range(10)]
    assert all(value == expected for value in results.values())


def telemetry_document(num_ranks, preset, faults=None):
    """One instrumented 32-rank collective run -> its report document."""
    bundle = Telemetry(tracing=False, timeline=True, health=True)
    nic = NicConfig.with_alpu(total_cells=128)
    if faults is not None:
        nic = dataclasses.replace(
            nic, reliability=ReliabilityConfig(enabled=True)
        )
    world = make_world(
        num_ranks, preset, telemetry=bundle, faults=faults, nic=nic
    )
    results = run_collectives(world, num_ranks)
    document = run_report(bundle, benchmark="collectives", preset=preset)
    return results, document


def test_32_rank_torus_collectives_deterministic():
    """Same configuration, fresh world: byte-identical telemetry."""
    first_results, first_doc = telemetry_document(32, "torus3d")
    second_results, second_doc = telemetry_document(32, "torus3d")
    assert first_results == second_results
    assert first_doc == second_doc
    assert first_results[0][1] == 32 * 33 // 2


def test_32_rank_torus_collectives_under_faults():
    """Seeded faults + reliability: same answers, deterministic document,
    and the zero-fault control stays clean."""
    faults = FaultConfig(seed=11, drop_rate=0.01, corrupt_rate=0.005)
    f_results, f_doc = telemetry_document(32, "torus3d", faults=faults)
    again_results, again_doc = telemetry_document(32, "torus3d", faults=faults)
    assert f_results == again_results
    assert f_doc == again_doc
    clean_results, clean_doc = telemetry_document(32, "torus3d")
    assert clean_results == f_results  # recovery is invisible to MPI
    assert clean_doc["health"]["verdict"] == "healthy"
