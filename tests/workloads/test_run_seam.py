"""The workload runner: the one place a workload's world is built and run."""

import inspect

import pytest

import repro.workloads.runner as runner
from repro.mpi.world import MpiWorld
from repro.nic.nic import NicConfig
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.pingpong import run_pingpong
from repro.workloads.runner import Plan, Samples
from repro.workloads.sweep import BENCHMARKS


def _record_runs(monkeypatch) -> list:
    """Record ``(world, run keywords)`` for every world the runner runs."""
    runs = []

    class RecordingWorld(MpiWorld):
        def run(self, programs, **kwargs):
            runs.append((self, kwargs))
            return super().run(programs, **kwargs)

    monkeypatch.setattr(runner, "MpiWorld", RecordingWorld)
    return runs


def _idle(mpi):
    yield from mpi.init()
    yield from mpi.finalize()
    return float(mpi.rank)


def test_plan_shapes_the_world(monkeypatch):
    """Rank count, ranks per node, topology and deadline all come from the
    plan; the result is the plan's summary of the finished world."""
    runs = _record_runs(monkeypatch)
    seen = {}

    def summarize(world, results):
        seen["world"] = world
        return Samples(latencies_ns=[results[r] for r in sorted(results)])

    def plan(params):
        return Plan(
            programs={rank: _idle for rank in range(params)},
            summarize=summarize,
            ranks_per_node=2,
            topology="ring",
            deadline_us=500.0,
        )

    result = runner.run(plan, NicConfig.baseline(), 4)
    [(world, kwargs)] = runs
    assert seen["world"] is world
    assert world.config.num_ranks == 4
    assert world.config.ranks_per_node == 2
    assert world.config.fabric.topology.preset == "ring"
    assert kwargs == {"deadline_us": 500.0}
    assert result.latencies_ns == [0.0, 1.0, 2.0, 3.0]


def test_plan_defaults_keep_the_crossbar_and_the_world_deadline(monkeypatch):
    runs = _record_runs(monkeypatch)

    def plan(params):
        return Plan(
            programs={0: _idle, 1: _idle},
            summarize=lambda world, results: Samples(latencies_ns=[1.0]),
        )

    runner.run(plan, NicConfig.baseline(), None)
    [(world, kwargs)] = runs
    assert world.config.ranks_per_node == 1
    assert world.config.fabric.topology.preset == "crossbar"
    assert world.config.faults is None
    assert kwargs == {}


def test_halo_topology_comes_from_its_params(monkeypatch):
    """Topology's one home is ``HaloParams``; the runner builds on it."""
    runs = _record_runs(monkeypatch)
    params = HaloParams(ranks=4, topology="ring", iterations=1, warmup=0)
    result = run_halo(NicConfig.baseline(), params)
    [(world, _)] = runs
    assert world.config.fabric.topology.preset == "ring"
    assert result.latencies_ns


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_every_workload_is_the_runner_bound_to_a_plan(name):
    """Each table entry is ``run`` bound to a plan, so it takes exactly
    the runner's keywords: no ``topology``, one ``faults``."""
    bound = BENCHMARKS[name].runner
    assert bound.func is runner.run
    keywords = inspect.signature(bound).parameters
    assert "topology" not in keywords
    assert keywords["faults"].kind is inspect.Parameter.KEYWORD_ONLY
    assert keywords["telemetry"].kind is inspect.Parameter.KEYWORD_ONLY


def test_pingpong_is_the_runner_bound_to_a_plan():
    assert run_pingpong.func is runner.run


def test_samples_mean_and_median():
    samples = Samples(latencies_ns=[4.0, 1.0, 10.0])
    assert samples.mean_ns == 5.0
    assert samples.median_ns == 4.0
