"""Hash-based software matching -- the alternative Section II dismisses.

"In order to reduce the search cost, approaches using hash tables have
been explored.  Hash tables can significantly reduce the time needed to
find a matching entry, but can also significantly increase the time
needed to insert an entry into the list. ... Hashing is also complicated
by the need to support wildcard matching and maintain ordering
semantics."

This module implements that alternative faithfully so the repository can
measure the trade-off the paper argues from:

* **Posted-receive side.**  Receives are stored in buckets keyed by their
  own wildcard class: (context, source, tag), (context, *, tag),
  (context, source, *), (context, *, *).  An incoming message probes all
  four classes and takes the candidate with the lowest global sequence
  number -- that is the only way a hash can preserve MPI's ordered
  first-match semantics when wildcards are present, and it is why the
  "fast" path still costs four probes.
* **Unexpected side.**  Arrived headers are exact, so they hash on the
  full triple.  A receive *without* wildcards probes one bucket; a
  receive with ANY_SOURCE (the common wildcard, per the paper's survey)
  cannot be bucket-addressed and must fall back to scanning -- the
  reverse-lookup problem of Section II.

Every operation returns the memory lines it touched and the cycles it
burned so the firmware charges honest time: inserts pay a hash + two
scattered line writes (vs. one sequential write for the list), which is
exactly the regression "especially noticeable in the zero-length
ping-pong latency test".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.match import MatchFormat, MatchRequest
from repro.nic.queues import QueueEntry

#: wildcard-class keys for the posted-receive table
EXACT = 0
ANY_SRC = 1
ANY_TAG_CLASS = 2
ANY_BOTH = 3


@dataclasses.dataclass(frozen=True)
class HashCosts:
    """Cycle charges for hash-engine primitives (NIC processor)."""

    #: compute one hash and locate the bucket head
    probe_cycles: int = 12
    #: compare one candidate within a bucket (same work as a list visit)
    compare_cycles: int = 7
    #: link an entry into a bucket (hash + pointer splice + seq update)
    insert_cycles: int = 24
    #: unlink an entry from its bucket
    remove_cycles: int = 10


@dataclasses.dataclass
class OpCost:
    """What an operation cost: cycles plus the memory lines touched."""

    cycles: int = 0
    touches: List[Tuple[int, int, bool]] = dataclasses.field(default_factory=list)

    def add_touch(self, addr: int, size: int = 64, write: bool = False) -> None:
        """Record one memory reference this operation performed."""
        self.touches.append((addr, size, write))


class HashMatchTable:
    """One hashed match structure (posted-receive or unexpected side)."""

    def __init__(
        self,
        fmt: MatchFormat,
        *,
        num_buckets: int = 64,
        bucket_base_addr: int = 0x80_0000,
        costs: HashCosts = HashCosts(),
    ) -> None:
        self.fmt = fmt
        self.num_buckets = num_buckets
        self.bucket_base_addr = bucket_base_addr
        self.costs = costs
        self._seq = 0
        #: (wildcard_class, bucket_index) -> ordered [(seq, entry), ...]
        self._buckets: Dict[Tuple[int, int], List[Tuple[int, QueueEntry]]] = {}
        self._sequence_of: Dict[int, int] = {}  # entry uid -> seq
        self.inserts = 0
        self.probes = 0

    # ------------------------------------------------------------- hashing
    def _bucket_index(self, context: int, source: int, tag: int) -> int:
        # a multiplicative hash; quality barely matters at these sizes
        key = (context * 0x9E3779B1 + source * 0x85EBCA77 + tag * 0xC2B2AE3D)
        return (key >> 7) % self.num_buckets

    def _bucket_addr(self, wildcard_class: int, index: int) -> int:
        return self.bucket_base_addr + (wildcard_class * self.num_buckets + index) * 64

    def _classify(self, entry: QueueEntry) -> Tuple[int, int, int, int]:
        """Wildcard class + the key fields of a stored entry."""
        context, source, tag = self.fmt.unpack(entry.bits)
        source_wild = bool(entry.mask & self.fmt.source_field_mask)
        tag_wild = bool(entry.mask & self.fmt.tag_field_mask)
        if source_wild and tag_wild:
            return ANY_BOTH, context, 0, 0
        if source_wild:
            return ANY_SRC, context, 0, tag
        if tag_wild:
            return ANY_TAG_CLASS, context, source, 0
        return EXACT, context, source, tag

    # ------------------------------------------------------------- inserts
    def insert(self, entry: QueueEntry) -> OpCost:
        """Add an entry; returns the cost the firmware must charge."""
        wildcard_class, context, source, tag = self._classify(entry)
        index = self._bucket_index(context, source, tag)
        bucket = self._buckets.setdefault((wildcard_class, index), [])
        bucket.append((self._seq, entry))
        self._sequence_of[entry.uid] = self._seq
        self._seq += 1
        self.inserts += 1
        cost = OpCost(cycles=self.costs.insert_cycles)
        cost.add_touch(self._bucket_addr(wildcard_class, index), write=True)
        cost.add_touch(entry.addr, 128, write=True)
        return cost

    def remove(self, entry: QueueEntry) -> OpCost:
        """Unlink an entry (it matched, or was cancelled)."""
        wildcard_class, context, source, tag = self._classify(entry)
        index = self._bucket_index(context, source, tag)
        bucket = self._buckets.get((wildcard_class, index), [])
        for position, (_, candidate) in enumerate(bucket):
            if candidate is entry:
                del bucket[position]
                break
        else:  # pragma: no cover - table/queue desync would be a bug
            raise KeyError(f"entry {entry.uid} not in hash table")
        self._sequence_of.pop(entry.uid, None)
        cost = OpCost(cycles=self.costs.remove_cycles)
        cost.add_touch(self._bucket_addr(wildcard_class, index), write=True)
        return cost

    # ----------------------------------------------------- posted-side match
    def match_incoming(self, request: MatchRequest) -> Tuple[Optional[QueueEntry], OpCost]:
        """An incoming message probes all four wildcard classes.

        MPI ordering: among every candidate whose pattern accepts the
        message, the lowest global sequence number (the oldest posted
        receive) wins -- bucket locality cannot shortcut that.
        """
        context, source, tag = self.fmt.unpack(request.bits)
        probes = [
            (EXACT, self._bucket_index(context, source, tag)),
            (ANY_SRC, self._bucket_index(context, 0, tag)),
            (ANY_TAG_CLASS, self._bucket_index(context, source, 0)),
            (ANY_BOTH, self._bucket_index(context, 0, 0)),
        ]
        cost = OpCost()
        best: Optional[Tuple[int, QueueEntry]] = None
        for wildcard_class, index in probes:
            cost.cycles += self.costs.probe_cycles
            cost.add_touch(self._bucket_addr(wildcard_class, index))
            self.probes += 1
            for seq, entry in self._buckets.get((wildcard_class, index), []):
                cost.cycles += self.costs.compare_cycles
                cost.add_touch(entry.addr)
                if entry.matches(request) and (best is None or seq < best[0]):
                    best = (seq, entry)
                    break  # within a bucket, entries are seq-ordered
        if best is None:
            return None, cost
        entry = best[1]
        removal = self.remove(entry)
        cost.cycles += removal.cycles
        cost.touches.extend(removal.touches)
        return entry, cost

    # -------------------------------------------------- unexpected-side match
    def match_posted_receive(
        self, request: MatchRequest
    ) -> Tuple[Optional[QueueEntry], OpCost]:
        """A receive being posted searches stored *exact* headers.

        Without wildcards: one bucket probe.  With ANY_SOURCE or ANY_TAG
        the bucket address is unknowable -- "unexpected messages actually
        require a reverse lookup" -- and the table degenerates to a full
        scan in sequence order.
        """
        cost = OpCost()
        source_wild = bool(request.mask & self.fmt.source_field_mask)
        tag_wild = bool(request.mask & self.fmt.tag_field_mask)
        if not source_wild and not tag_wild:
            context, source, tag = self.fmt.unpack(request.bits)
            index = self._bucket_index(context, source, tag)
            cost.cycles += self.costs.probe_cycles
            cost.add_touch(self._bucket_addr(EXACT, index))
            self.probes += 1
            for seq, entry in self._buckets.get((EXACT, index), []):
                cost.cycles += self.costs.compare_cycles
                cost.add_touch(entry.addr)
                if entry.matches(request):
                    removal = self.remove(entry)
                    cost.cycles += removal.cycles
                    cost.touches.extend(removal.touches)
                    return entry, cost
            return None, cost
        # wildcard reverse lookup: scan everything, oldest first
        candidates: List[Tuple[int, QueueEntry]] = []
        for (wildcard_class, index), bucket in self._buckets.items():
            cost.cycles += self.costs.probe_cycles
            cost.add_touch(self._bucket_addr(wildcard_class, index))
            self.probes += 1
            candidates.extend(bucket)
        candidates.sort(key=lambda pair: pair[0])
        for seq, entry in candidates:
            cost.cycles += self.costs.compare_cycles
            cost.add_touch(entry.addr)
            if entry.matches(request):
                removal = self.remove(entry)
                cost.cycles += removal.cycles
                cost.touches.extend(removal.touches)
                return entry, cost
        return None, cost

    # ------------------------------------------------------------ observers
    def __len__(self) -> int:
        return len(self._sequence_of)
