"""The composed memory system: caches over DRAM.

:class:`MemorySystem` turns an address stream into **stall time**.  An
access returns the picoseconds of stall *beyond* the pipelined L1-hit path
(an L1 hit costs 0 extra; the per-instruction cost model already covers
it).  Misses walk the hierarchy: optional L2, then the DRAM path with a
fixed controller/bus overhead plus the DRAM's row-state-dependent latency.
Dirty evictions charge a DRAM write-back access, which also perturbs the
open-row state -- this is the "contention for open rows" effect the paper
models.

Default calibrations (see :mod:`repro.proc.params`) land the full
load-to-use path in Table III's bands: 30-32 cycles at 500 MHz for the NIC
(60-64 ns) and 85-90 cycles at 2 GHz for the host (42.5-45 ns).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.memory.cache import _ABSENT, Cache, CacheConfig
from repro.memory.dram import Dram, DramConfig

#: one line's place in the hierarchy: (line address, L1 set dict, L1 tag,
#: L1 set index, DRAM bank, DRAM row).  The set dict is the cache's own
#: (they live as long as the cache), so a placement never goes stale.
Placement = Tuple[int, dict, int, int, int, int]


@dataclasses.dataclass(frozen=True)
class MemorySystemConfig:
    """Hierarchy shape and fixed latencies (picoseconds)."""

    l1: CacheConfig
    l2: Optional[CacheConfig] = None
    #: stall for an L2 hit (beyond the L1-hit path)
    l2_hit_ps: int = 6_000
    #: fixed bus + controller overhead on the DRAM path
    miss_base_ps: int = 44_000
    dram: DramConfig = dataclasses.field(default_factory=DramConfig)

    def __post_init__(self) -> None:
        if self.l2_hit_ps < 0 or self.miss_base_ps < 0:
            raise ValueError(f"negative latency in {self}")


class MemorySystem:
    """Caches + DRAM for one processor."""

    def __init__(self, config: MemorySystemConfig, name: str = "mem") -> None:
        self.config = config
        self.name = name
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2) if config.l2 is not None else None
        self.dram = Dram(config.dram)
        self.total_stall_ps = 0
        self._line_bytes = config.l1.line_bytes
        #: line address -> :meth:`_place` of it, for lines that list walks
        #: read (:meth:`read_lines`); bounded by the distinct queue-entry
        #: lines, which the NIC allocator recycles
        self._walked: Dict[int, Placement] = {}
        levels = [self.l1] + ([self.l2] if self.l2 is not None else [])
        #: walks longer than this many lines (every line the caches hold)
        #: replay a repeat from :attr:`_replay`; below it, snapshotting
        #: the state would cost more than simulating the walk saves
        self._capacity = sum(cache.config.num_lines for cache in levels)
        #: every set of every level, for snapshots and in-place restores
        self._all_sets = [cache_set for cache in levels for cache_set in cache._sets]
        #: (owner, attribute) of every counter a walk can advance
        self._counted = [
            (cache, name) for cache in levels for name in ("hits", "misses", "writebacks")
        ] + [(self.dram, name) for name in ("page_hits", "page_misses", "page_conflicts")]
        #: the last long walk: (key, sets after, open rows after, counter
        #: deltas, stall) -- one entry, so memory stays bounded
        self._replay: Optional[tuple] = None
        #: long walks answered from :attr:`_replay` rather than simulated
        #: (host work, not a simulated event: :meth:`reset_stats` keeps it)
        self.walks_replayed = 0

    # -------------------------------------------------------------- accesses
    def access(self, addr: int, size: int = 8, *, write: bool = False) -> int:
        """Access ``[addr, addr+size)``; returns stall time in ps.

        Every cache line the range overlaps is accessed; stalls add up
        (the models here never overlap misses -- the PowerPC 440-class NIC
        core is in-order with a single memory port, and list traversal is a
        dependent pointer chase anyway).
        """
        if size <= 0:
            raise ValueError(f"access size must be positive: {size}")
        line = self._line_bytes
        l1 = self.l1
        num_sets = l1._num_sets
        stall = 0
        for index in range(addr // line, (addr + size - 1) // line + 1):
            # nearly always an L1 hit (0 ps stall): probe inline, and leave
            # a miss to _lines (whose own probe then finds the tag absent)
            cache_set = l1._sets[index % num_sets]
            tag = index // num_sets
            dirty = cache_set.pop(tag, _ABSENT)
            if dirty is not _ABSENT:
                cache_set[tag] = dirty or write
                l1.hits += 1
            else:
                stall += self._lines((self._place(index * line),), write)
        return stall

    def read_lines(self, addrs: List[int]) -> int:
        """Read whole lines in order; returns their summed stall in ps.

        Each address must start a line.  The result -- stall, cache and
        DRAM state, every counter -- is exactly that of
        ``access(addr, line_bytes)`` for each address in turn, in one call
        (a software list walk charges all its visits this way).  A walk
        revisits the same entries over and over, so placements are
        memoised: safe, since a placement is a pure function of the
        address and the frozen configs.  A walk longer than the caches
        hold goes through :meth:`_long_walk`, which replays a repeat and
        keeps ``addrs`` for that, so the caller must not mutate it.
        """
        if len(addrs) > self._capacity:
            return self._long_walk(addrs)
        return self._walk(addrs)

    def _walk(self, addrs: List[int]) -> int:
        """Simulate a walk through memoised placements."""
        walked = self._walked
        remember = self._remember
        return self._lines([walked.get(a) or remember(a) for a in addrs], False)

    def _long_walk(self, addrs: List[int]) -> int:
        """Simulate a long walk, or replay it when it repeats the last one.

        A walk's effect is a pure function of its addresses, every set's
        LRU-ordered tags and dirty bits and the DRAM open rows.  When all
        of these equal the last long walk's, its recorded after-state is
        restored and its counter deltas are added -- exactly what
        simulating again would do.  The key holds one tag list and one
        dirty-bit list per set; restores refill the existing dicts in
        place (placements and the caches hold references to them).
        """
        sets = self._all_sets
        open_rows = self.dram._open_rows
        key = (
            addrs,
            [*map(list, sets)],
            [*map(list, map(dict.values, sets))],
            list(open_rows.items()),
        )
        record = self._replay
        if record is not None and record[0] == key:
            _, after, rows, deltas, stall = record
            for cache_set, items in zip(sets, after):
                cache_set.clear()
                cache_set.update(items)
            open_rows.clear()
            open_rows.update(rows)
            for (owner, name), delta in zip(self._counted, deltas):
                setattr(owner, name, getattr(owner, name) + delta)
            self.total_stall_ps += stall
            self.walks_replayed += 1
            return stall
        before = [getattr(owner, name) for owner, name in self._counted]
        stall = self._walk(addrs)
        deltas = [
            getattr(owner, name) - count
            for (owner, name), count in zip(self._counted, before)
        ]
        self._replay = (
            key, [*map(dict.copy, sets)], open_rows.copy(), deltas, stall
        )
        return stall

    def _place(self, line_addr: int) -> Placement:
        """Where a line lives: L1 set and tag, DRAM bank and row."""
        l1 = self.l1
        line = line_addr // self._line_bytes
        index = line % l1._num_sets
        row = line_addr // self.dram.config.row_bytes
        return (
            line_addr,
            l1._sets[index],
            line // l1._num_sets,
            index,
            row % self.dram.config.num_banks,
            row,
        )

    def _remember(self, line_addr: int) -> Placement:
        """Place a walked line and memoise it."""
        if line_addr % self._line_bytes:
            raise ValueError(f"not a line address: {line_addr:#x}")
        where = self._walked[line_addr] = self._place(line_addr)
        return where

    def _lines(self, places: Iterable[Placement], write: bool) -> int:
        """The one access path: each line through L1, then L2 or DRAM.

        An L1 hit stalls 0.  A miss allocates (write-allocate, LRU victim,
        dirty victims written back), then costs an L2 hit or the DRAM path:
        ``miss_base_ps`` plus the open-row latency of :meth:`Dram.access`,
        inlined here with counters kept in locals until the walk ends.
        """
        l1 = self.l1
        ways = l1._ways
        num_sets = l1._num_sets
        line_bytes = self._line_bytes
        l2 = self.l2
        dram = self.dram
        open_rows = dram._open_rows
        timing = dram.config
        page_hit_ps = self.config.miss_base_ps + timing.cas_ps
        page_miss_ps = page_hit_ps + timing.ras_ps
        page_conflict_ps = page_miss_ps + timing.precharge_ps
        hits = misses = page_hits = page_misses = page_conflicts = 0
        stall = 0
        for addr, cache_set, tag, index, bank, row in places:
            dirty = cache_set.pop(tag, _ABSENT)
            if dirty is not _ABSENT:
                # hit: re-insert at the MRU end
                cache_set[tag] = dirty or write
                hits += 1
                continue
            misses += 1
            if len(cache_set) >= ways:
                victim = next(iter(cache_set))
                if cache_set.pop(victim):
                    l1.writebacks += 1
                    stall += self._writeback((victim * num_sets + index) * line_bytes)
            cache_set[tag] = write
            if l2 is not None:
                result = l2.access(addr)
                if result.hit:
                    stall += self.config.l2_hit_ps
                    continue
                if result.writeback_line is not None:
                    stall += self._writeback(result.writeback_line * line_bytes)
            open_row = open_rows.get(bank)
            if open_row == row:
                page_hits += 1
                stall += page_hit_ps
                continue
            if open_row is None:
                page_misses += 1
                stall += page_miss_ps
            else:
                page_conflicts += 1
                stall += page_conflict_ps
            open_rows[bank] = row
        l1.hits += hits
        if misses:
            l1.misses += misses
            dram.page_hits += page_hits
            dram.page_misses += page_misses
            dram.page_conflicts += page_conflicts
        self.total_stall_ps += stall
        return stall

    def _writeback(self, line_addr: int) -> int:
        """Write a dirty victim line to the next level.

        With an L2 the write-back is absorbed there (cheap, charged as an
        L2 hit); without one it goes to DRAM and disturbs the open row.
        The write-back itself is buffered, so we charge only the DRAM
        row-state perturbation path at half cost (posted write).
        """
        if self.l2 is not None:
            self.l2.access(line_addr, write=True)
            return 0
        return self.dram.access(line_addr) // 2

    # ------------------------------------------------------------ utilities
    def warm(self, addr: int, size: int) -> None:
        """Pre-load a range into the caches without charging time."""
        line = self.l1.config.line_bytes
        first = addr // line
        last = (addr + size - 1) // line
        for line_index in range(first, last + 1):
            line_addr = line_index * line
            if self.l2 is not None:
                self.l2.access(line_addr)
            self.l1.access(line_addr)

    def reset_stats(self) -> None:
        """Zero every level's counters (contents untouched)."""
        self.l1.reset_stats()
        if self.l2 is not None:
            self.l2.reset_stats()
        self.dram.reset_stats()
        self.total_stall_ps = 0

    def register_collectors(self, registry, prefix: str) -> None:
        """Expose the hierarchy's counters as pull-style metrics.

        The caches and DRAM already count hits/misses/row-buffer states on
        their hot paths; collectors sample those at snapshot time instead
        of adding a second increment per access.
        """
        levels = [("l1", self.l1)]
        if self.l2 is not None:
            levels.append(("l2", self.l2))
        for label, cache in levels:
            registry.register_tallies(
                f"{prefix}/{label}", cache, "hits", "misses", "writebacks", "hit_rate"
            )
        registry.register_tallies(
            f"{prefix}/dram", self.dram, "page_hits", "page_misses", "page_conflicts"
        )
        registry.register_collector(
            f"{prefix}/stall_ps", lambda: self.total_stall_ps
        )
