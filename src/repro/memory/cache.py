"""Set-associative cache model.

A functional (not cycle-pipelined) cache: each access classifies as hit or
miss, updates LRU state, and reports any dirty eviction so the memory
system can charge a write-back.  Latency is *not* decided here -- the
:class:`~repro.memory.system.MemorySystem` turns hit/miss outcomes into
cycle counts, keeping policy (timing) separate from mechanism (state).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Table III uses: host L1 64 KB 2-way, host L2 512 KB (we model 8-way),
    NIC L1 32 KB 64-way.  Line size defaults to 64 bytes throughout.
    """

    size_bytes: int
    ways: int
    line_bytes: int = 64
    name: str = "L1"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError(f"invalid cache geometry: {self}")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclasses.dataclass
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: line address written back to the next level (dirty eviction), if any
    writeback_line: Optional[int] = None
    #: line address fetched from the next level on a miss, if any
    fill_line: Optional[int] = None


#: shared result for the (overwhelmingly common) hit case -- callers treat
#: results as read-only, so one allocation serves every hit
_HIT = AccessResult(hit=True)

#: sentinel distinguishing "tag absent" from a clean (False) dirty bit
_ABSENT = object()


class Cache:
    """One level of set-associative cache with true-LRU replacement.

    Each set is a dict mapping ``tag -> dirty`` whose insertion order *is*
    the LRU order (first key = LRU, last = MRU): a hit pops and re-inserts
    the tag, a miss evicts ``next(iter(set))``.  This is behaviourally
    identical to the earlier list-of-lines model but makes the hit path a
    single hash probe instead of an O(ways) scan -- the NIC's 64-way L1
    made that scan the single hottest block in the whole simulator.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # hoisted geometry: num_sets is a dataclass property (a function
        # call), far too slow to re-derive per access
        self._num_sets = config.num_sets
        self._line_bytes = config.line_bytes
        self._ways = config.ways
        # each set is an LRU-ordered dict: first key = LRU, last = MRU
        self._sets: List[dict] = [{} for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # ------------------------------------------------------------- geometry
    def line_addr(self, addr: int) -> int:
        """Line index containing ``addr``."""
        return addr // self._line_bytes

    def _set_index(self, line: int) -> int:
        return line % self._num_sets

    def _tag(self, line: int) -> int:
        return line // self._num_sets

    # ------------------------------------------------------------- accesses
    def access(self, addr: int, *, write: bool = False) -> AccessResult:
        """Access one address (classified at line granularity)."""
        num_sets = self._num_sets
        line = addr // self._line_bytes
        index = line % num_sets
        tag = line // num_sets
        cache_set = self._sets[index]
        dirty = cache_set.pop(tag, _ABSENT)
        if dirty is not _ABSENT:
            # hit: re-insert at MRU position
            cache_set[tag] = dirty or write
            self.hits += 1
            return _HIT
        # miss: allocate (write-allocate policy)
        self.misses += 1
        writeback = None
        if len(cache_set) >= self._ways:
            victim_tag = next(iter(cache_set))
            if cache_set.pop(victim_tag):
                self.writebacks += 1
                writeback = victim_tag * num_sets + index
        cache_set[tag] = write
        return AccessResult(hit=False, writeback_line=writeback, fill_line=line)

    def invalidate_all(self) -> int:
        """Flush without write-back; returns the number of lines dropped."""
        dropped = sum(len(s) for s in self._sets)
        # cleared in place: the memory system memoises references to sets
        for cache_set in self._sets:
            cache_set.clear()
        return dropped

    # ------------------------------------------------------------ statistics
    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when untouched)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        """Zero the counters (contents untouched)."""
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
