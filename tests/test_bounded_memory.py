"""Memory guard: a run keeps nothing per completed message in the simulator.

The NIC and the ALPU hand every response and every pairing on to their
consumer (the driver's result FIFO, the receive's completion) and keep no
copy, so the memory a run still holds when ``Engine.run`` returns must
not grow with the run's length beyond what the workload itself records
(one latency sample and a few timestamps per iteration).

The measure is the number of allocated interpreter memory blocks
(``sys.getallocatedblocks``) after ``Engine.run`` minus before it, with
garbage collected at both ends.  Nearly every per-message record is a
small object, and so one block.  It is a count, not a timing, so it
does not depend on host speed, and it costs no tracing overhead.
"""

import gc
import sys

import pytest

from bench.workloads import run_workload
from repro.sim.engine import Engine

#: (short length, long length, budget): the held-block growth from the
#: short to the long run must stay below the budget.  A log that keeps
#: one record per matched message exceeds it several times over: with an
#: ALPU response log and a firmware pairing log the growth read 4,138
#: blocks on the halo and 7,868 on fig5; without them it reads 175 and
#: 1,549 (mostly the workload's own per-iteration samples and stamps).
CASES = {
    "halo-torus27": (1, 3, 1_000),
    "fig5-alpu256-q256": (40, 400, 2_500),
}


@pytest.fixture
def held_blocks(monkeypatch):
    """Blocks still allocated when ``Engine.run`` returns, summed over
    the runs made while the fixture is active."""
    held = [0]
    run = Engine.run

    def counted_run(self, *args, **kwargs):
        gc.collect()
        before = sys.getallocatedblocks()
        try:
            return run(self, *args, **kwargs)
        finally:
            gc.collect()
            held[0] += sys.getallocatedblocks() - before

    monkeypatch.setattr(Engine, "run", counted_run)
    return held


def test_the_counter_sees_what_a_run_keeps(held_blocks):
    engine = Engine()
    kept = []
    engine.schedule(1, lambda: kept.extend(object() for _ in range(2_000)))
    engine.run()
    assert len(kept) == 2_000
    # one block per object kept, give or take the event's own
    assert 1_950 <= held_blocks[0] <= 2_050


@pytest.mark.parametrize("workload", sorted(CASES))
def test_held_memory_does_not_grow_with_run_length(workload, held_blocks):
    short, long_, budget = CASES[workload]
    held = []
    for length in (short, long_):
        held_blocks[0] = 0
        outcome = run_workload(workload, 0, length=length)
        assert not outcome.failures
        held.append(held_blocks[0])
    assert held[1] - held[0] < budget, held
