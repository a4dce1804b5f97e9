"""Walk replay in ``MemorySystem.read_lines`` against single-line accesses.

A walk longer than the hierarchy holds is replayed from its recorded
effect when its addresses, cache contents and DRAM open rows repeat the
last long walk's.  Twin memory systems built from tiny configs (so such
walks stay cheap) are warmed alike; one twin repeats a walk through
``read_lines``, the other through ``access(addr, 64)`` per line, with a
perturbation before the last repeat.  Every stall and every piece of
state must agree, and a repeat replays exactly when it starts from the
state the recorded walk started from.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.memory.cache import CacheConfig
from repro.memory.dram import DramConfig
from repro.memory.system import MemorySystem, MemorySystemConfig
from repro.obs import Telemetry
from repro.workloads import UnexpectedParams, nic_preset, run_unexpected

LINE = 64
DRAM = DramConfig(num_banks=2, row_bytes=4 * LINE)

CONFIGS = {
    # 4 sets x 2 ways: walks longer than 8 lines replay
    "l1": MemorySystemConfig(l1=CacheConfig(512, 2), dram=DRAM),
    # 2 x 2 over 4 x 4: walks longer than 20 lines replay
    "l1+l2": MemorySystemConfig(
        l1=CacheConfig(256, 2), l2=CacheConfig(1024, 4, name="L2"), dram=DRAM
    ),
}

# 48 lines: every set overflows in both levels, and the 12 DRAM rows
# (4 lines each, 2 banks) keep conflicting
LINES = st.integers(0, 47).map(lambda line: line * LINE)
WARMUP = st.lists(
    st.tuples(
        LINES,
        st.integers(0, LINE - 1),  # offset: unaligned accesses too
        st.sampled_from([1, 8, 64, 200]),  # up to four lines
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=60,
)

#: a line no warm-up or walk touches
FAR = 10_000 * LINE


def state(memory):
    """Everything a walk can change, in comparable form."""
    levels = [memory.l1] + ([memory.l2] if memory.l2 is not None else [])
    dram = memory.dram
    return {
        # tags in LRU order with their dirty bits, per set
        "sets": [[list(s.items()) for s in cache._sets] for cache in levels],
        "counters": [(c.hits, c.misses, c.writebacks) for c in levels],
        "open_rows": dict(dram._open_rows),
        "pages": (dram.page_hits, dram.page_misses, dram.page_conflicts),
        "total_stall_ps": memory.total_stall_ps,
    }


def write_clean_line(memory):
    """A write that flips a resident line's dirty bit (else allocates)."""
    l1 = memory.l1
    clean = [
        (tag * l1._num_sets + index) * LINE
        for index, cache_set in enumerate(l1._sets)
        for tag, dirty in cache_set.items()
        if not dirty
    ]
    return lambda m: m.access(clean[0] if clean else FAR, 8, write=True)


def read_lru_line(memory):
    """A read hit on the LRU line of a set holding two or more: it moves to MRU."""
    l1 = memory.l1
    index = max(range(l1._num_sets), key=lambda i: len(l1._sets[i]))
    assume(len(l1._sets[index]) > 1)
    addr = (next(iter(l1._sets[index])) * l1._num_sets + index) * LINE
    return lambda m: m.access(addr, 8)


def open_other_row(memory):
    """A DRAM access to bank 0 in a row other than its open one."""
    row = memory.dram._open_rows.get(0, -DRAM.num_banks) + DRAM.num_banks
    return lambda m: m.dram.access(row * DRAM.row_bytes)


def invalidate(memory):
    def apply(m):
        m.l1.invalidate_all()
        if m.l2 is not None:
            m.l2.invalidate_all()

    return apply


#: name -> (builder of the perturbation from twin A's state, whether it
#: changes what a walk starts from)
PERTURBATIONS = {
    "none": (lambda memory: lambda m: None, False),
    "write": (write_clean_line, True),
    "read-hit": (read_lru_line, True),
    "dram-row": (open_other_row, True),
    "invalidate_all": (invalidate, True),
    "close_all_rows": (lambda memory: lambda m: m.dram.close_all_rows(), True),
    # contents untouched: replaying onto zeroed counters is still exact
    "reset_stats": (lambda memory: lambda m: m.reset_stats(), False),
}


def walk_input(memory):
    """What a walk's effect depends on: cache contents and open rows."""
    return state(memory)["sets"], list(memory.dram._open_rows.items())


def walk_both(replayed, single, walk):
    assert replayed.read_lines(walk) == sum(single.access(a, LINE) for a in walk)
    assert state(replayed) == state(single)


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=20)
@given(warmup=WARMUP, data=st.data())
def test_repeated_long_walk_equals_single_line_reads(config, perturbation, warmup, data):
    replayed, single = MemorySystem(CONFIGS[config]), MemorySystem(CONFIGS[config])
    capacity = replayed._capacity
    walk = data.draw(st.lists(LINES, min_size=capacity + 1, max_size=3 * capacity))
    for memory in (replayed, single):
        for line_addr, offset, size, write in warmup:
            memory.access(line_addr + offset, size, write=write)
    walk_both(replayed, single, walk)
    recorded = walk_input(replayed)
    walk_both(replayed, single, walk)

    build, changes_input = PERTURBATIONS[perturbation]
    settled = walk_input(replayed)
    perturb = build(replayed)
    perturb(replayed)
    perturb(single)
    assert state(replayed) == state(single)
    assert (walk_input(replayed) != settled) == changes_input

    # the repeat replays exactly when it starts where the recorded walk did
    replays = replayed.walks_replayed
    repeats = walk_input(replayed) == recorded
    walk_both(replayed, single, walk)
    assert replayed.walks_replayed == replays + repeats


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_cyclic_walk_replays_every_unperturbed_repeat(config):
    """Distinct lines in a cycle, as a list walk visits them: from the
    second pass on, each pass starts where the previous one did."""
    replayed, single = MemorySystem(CONFIGS[config]), MemorySystem(CONFIGS[config])
    walk = [line * LINE for line in range(2 * replayed._capacity)]
    for passes in range(1, 6):
        walk_both(replayed, single, walk)
        assert replayed.walks_replayed == max(0, passes - 2)


def test_a_walk_within_capacity_is_always_simulated():
    memory = MemorySystem(CONFIGS["l1"])
    walk = [line * LINE for line in range(memory._capacity)]
    memory.read_lines(walk)
    memory.read_lines(walk)
    assert memory.walks_replayed == 0


def test_a_long_unaligned_walk_is_rejected_before_it_is_recorded():
    memory = MemorySystem(CONFIGS["l1"])
    walk = [line * LINE for line in range(memory._capacity)] + [8]
    for _ in range(2):
        with pytest.raises(ValueError, match="line address"):
            memory.read_lines(walk)
    assert memory.walks_replayed == 0


def per_line_reads(memory, addrs):
    """The oracle: one single-line access per address, never replayed."""
    return sum(memory.access(addr, LINE) for addr in addrs)


def test_fig6_walks_replay_with_unchanged_results(monkeypatch):
    """An unexpected-queue walk past the NIC L1 replays, bit-identically."""
    params = UnexpectedParams(queue_length=600, iterations=6, warmup=2)
    memories = []
    init = MemorySystem.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memories.append(self)

    def run():
        telemetry = Telemetry()
        result = run_unexpected(nic_preset("baseline"), params, telemetry=telemetry)
        counters = {k: v for k, v in telemetry.snapshot().items() if ".mem/" in k}
        return result, counters

    with monkeypatch.context() as patch:
        patch.setattr(MemorySystem, "__init__", tracked_init)
        replayed, replayed_counters = run()
    with monkeypatch.context() as patch:
        patch.setattr(MemorySystem, "read_lines", per_line_reads)
        oracle, oracle_counters = run()

    assert replayed.latencies_ns == oracle.latencies_ns
    assert replayed.entries_traversed == oracle.entries_traversed
    assert any("nic" in key for key in replayed_counters)
    assert replayed_counters == oracle_counters
    assert sum(memory.walks_replayed for memory in memories) > 0
