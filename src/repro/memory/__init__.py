"""Memory-hierarchy models.

The paper's simulation "modeled the memory hierarchy to include contention
for open rows on the DRAM chips" and gives each processor an L1 cache
(Table III: host 64 KB 2-way + 512 KB L2; NIC 32 KB 64-way, no L2).  This
subpackage provides:

* :class:`~repro.memory.cache.Cache` -- set-associative, LRU, write-back /
  write-allocate.
* :class:`~repro.memory.dram.Dram` -- banked DRAM with open-row (page-mode)
  hit/miss timing.
* :class:`~repro.memory.sram.Sram` -- fixed-latency scratch memory (the NIC
  local SRAM).
* :class:`~repro.memory.system.MemorySystem` -- composes cache levels over
  DRAM and converts an address stream into access latencies in cycles.
* :mod:`~repro.memory.layout` -- address-layout helpers that place queue
  entries in simulated memory so that traversals produce realistic cache
  behaviour.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "cache": ("Cache", "CacheConfig", "AccessResult"),
        "dram": ("Dram", "DramConfig"),
        "sram": ("Sram",),
        "system": ("MemorySystem", "MemorySystemConfig"),
        "layout": ("AddressAllocator",),
    },
)
