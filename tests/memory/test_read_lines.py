"""``MemorySystem.read_lines`` against single-line accesses and a reference model.

Twin memory systems are warmed with the same random mix of reads and
writes (some spanning several lines).  One twin then walks a list of lines
with one :meth:`read_lines` call, the other with ``access(addr, 64)`` per
address; every piece of state must come out equal.  A third check replays
the whole stream through a reference composition of the unit models
(:meth:`Cache.access` + :meth:`Dram.access`), which is how the hierarchy
charged before its miss path was inlined.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache
from repro.memory.dram import Dram
from repro.proc.params import make_host_memory, make_nic_memory

PRESETS = {"nic": make_nic_memory, "host": make_host_memory}
LINE = 64

# Lines drawn so that sets overflow in every level and DRAM rows conflict:
# 100 tags a (1024 lines apart: the same L1 and L2 sets), 4 DRAM banks c
# (32 lines = one 2 KB row apart), 2 neighbouring lines b.
LINES = st.builds(
    lambda a, c, b: (a * 1024 + c * 32 + b) * LINE,
    st.integers(0, 99),
    st.integers(0, 3),
    st.integers(0, 1),
)
WARMUP = st.lists(
    st.tuples(
        LINES,
        st.integers(0, LINE - 1),  # offset: unaligned accesses too
        st.sampled_from([1, 8, 64, 128, 200]),  # up to four lines
        st.booleans(),  # write
    ),
    min_size=50,
    max_size=300,
)
WALK = st.lists(LINES, max_size=300)


def state(memory):
    """Everything a walk can change, in comparable form."""
    levels = [memory.l1] + ([memory.l2] if memory.l2 is not None else [])
    dram = memory.dram
    return {
        # tags in LRU order with their dirty bits, per non-empty set
        "sets": [
            {i: list(s.items()) for i, s in enumerate(cache._sets) if s}
            for cache in levels
        ],
        "counters": [(c.hits, c.misses, c.writebacks) for c in levels],
        "open_rows": dict(dram._open_rows),
        "pages": (dram.page_hits, dram.page_misses, dram.page_conflicts),
        "total_stall_ps": memory.total_stall_ps,
    }


def warm_up(memory, ops):
    for line_addr, offset, size, write in ops:
        memory.access(line_addr + offset, size, write=write)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=40)
@given(warmup=WARMUP, walk=WALK)
def test_read_lines_equals_single_line_reads(preset, warmup, walk):
    batched, single = PRESETS[preset](), PRESETS[preset]()
    warm_up(batched, warmup)
    warm_up(single, warmup)
    assert state(batched) == state(single)
    stall = batched.read_lines(walk)
    assert stall == sum(single.access(addr, LINE) for addr in walk)
    assert state(batched) == state(single)
    # a second pass goes through the memoised placements
    assert batched.read_lines(walk) == sum(single.access(a, LINE) for a in walk)
    assert state(batched) == state(single)


class Reference:
    """The hierarchy composed from the unit models, one call per level."""

    def __init__(self, memory):
        config = memory.config
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2) if config.l2 is not None else None
        self.dram = Dram(config.dram)
        self.total_stall_ps = 0

    def writeback(self, line_addr):
        if self.l2 is not None:
            self.l2.access(line_addr, write=True)
            return 0
        return self.dram.access(line_addr) // 2

    def access(self, addr, size=8, *, write=False):
        stall = 0
        for line in range(addr // LINE, (addr + size - 1) // LINE + 1):
            result = self.l1.access(line * LINE, write=write)
            if result.hit:
                continue
            if result.writeback_line is not None:
                stall += self.writeback(result.writeback_line * LINE)
            if self.l2 is not None:
                lower = self.l2.access(line * LINE)
                if lower.hit:
                    stall += self.config.l2_hit_ps
                    continue
                if lower.writeback_line is not None:
                    stall += self.writeback(lower.writeback_line * LINE)
            stall += self.config.miss_base_ps + self.dram.access(line * LINE)
        self.total_stall_ps += stall
        return stall


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=25)
@given(warmup=WARMUP, walk=WALK)
def test_hierarchy_matches_the_unit_model_composition(preset, warmup, walk):
    memory = PRESETS[preset]()
    reference = Reference(memory)
    for line_addr, offset, size, write in warmup:
        addr = line_addr + offset
        assert memory.access(addr, size, write=write) == reference.access(
            addr, size, write=write
        )
    assert memory.read_lines(walk) == sum(reference.access(a, LINE) for a in walk)
    assert state(memory) == state(reference)


def test_read_lines_rejects_an_unaligned_address():
    with pytest.raises(ValueError, match="line address"):
        make_nic_memory().read_lines([0x1000 + 8])


def test_read_lines_of_nothing_costs_nothing():
    memory = make_nic_memory()
    assert memory.read_lines([]) == 0
    assert state(memory) == state(make_nic_memory())
