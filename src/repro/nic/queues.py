"""The firmware's queue data structures.

"The primary data structures are a series of linked lists to contain
requests and the state required to advance them" (Section V-C):
postedRecvQ, activeRecvQ, unexpectedQ, unexpectedActiveQ and sendQ, all
resident in NIC memory.

Entries occupy real (simulated) addresses so traversals produce genuine
cache behaviour: each entry is a 128-byte block whose *first* cache line
holds the envelope and next pointer (touched by every traversal step) and
whose second line holds request state (touched only when the entry
matches or is being advanced).  Entries are recycled through the
allocator's free list, as the C++ firmware's allocator would, keeping a
steady-state queue at stable addresses.

The store is an insertion-ordered map keyed by entry uid, so ``append``,
``remove`` and ``find_by_uid`` are all O(1) while iteration still walks
FIFO order -- the million-message workloads churn these queues hard
enough that the old ``list.index`` unlink turned quadratic.  *Which*
entries a search visits (and in what order) is delegated to a pluggable
:class:`~repro.nic.qdisc.QueueDiscipline`; the default FIFO discipline
reproduces plain linear traversal bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.match import MatchRequest
from repro.memory.layout import AddressAllocator
from repro.obs.metrics import NULL_GAUGE


class EntryKind(enum.Enum):
    """What a queue entry represents."""

    POSTED_RECV = "posted_recv"
    UNEXPECTED_EAGER = "unexpected_eager"
    UNEXPECTED_RNDV = "unexpected_rndv"
    SEND = "send"


_entry_ids = itertools.count(1)


@dataclasses.dataclass(eq=False, slots=True)
class QueueEntry:
    """One list entry in NIC memory.

    ``eq=False``: every entry carries a unique ``uid``, so field equality
    could only ever hold between an entry and itself -- identity equality
    is the same relation.
    """

    kind: EntryKind
    #: packed {context, source, tag} match bits
    bits: int
    #: wildcard mask (posted receives only; 0 for headers)
    mask: int
    #: base address of this entry's 128-byte block in NIC memory
    addr: int
    #: payload length in bytes
    size: int
    #: host-side request id (posted receives and sends)
    host_req_id: int = 0
    #: global rank that owns this request (completion routing when
    #: several processes share the NIC)
    owner_rank: int = 0
    #: peer's send id (unexpected entries: needed for the rendezvous CTS)
    peer_send_id: int = 0
    #: source node of an unexpected message
    src_node: int = 0
    #: matched message envelope, filled at pairing time so the receive's
    #: completion can report MPI_Status to the host
    matched_source: int = -1
    matched_tag: int = -1
    matched_size: int = 0
    #: queue-global append order (assigned by :meth:`NicQueue.append`);
    #: sharded disciplines merge shards on it to recover FIFO age order
    seq: int = 0
    #: True while this entry is mirrored in the ALPU (the prefix); the
    #: mirrored entries always form a prefix of the append order
    in_alpu: bool = False
    #: unique id; doubles as the ALPU tag via the driver's tag table
    uid: int = dataclasses.field(default_factory=lambda: next(_entry_ids))

    def matches(self, request: MatchRequest) -> bool:
        """Ternary compare against a request (wildcards honoured).

        Same rule as :func:`repro.core.match.matches` with both masks
        honoured, evaluated directly so the linear-search hot loop does
        not allocate a :class:`MatchEntry` per visited entry.
        """
        return ((self.bits ^ request.bits) & ~(self.mask | request.mask)) == 0


#: per-entry footprint in NIC memory (two cache lines)
ENTRY_BYTES = 128


class NicQueue:
    """An ordered set of entries with an ALPU-loaded prefix.

    The oldest ``alpu_count`` entries are mirrored in the ALPU; the
    suffix is software-only.  "A pointer is kept to indicate which
    portions of the postedRecvQ and unexpectedQ have been transferred to
    the ALPU and which have not" -- here that pointer is the per-entry
    ``in_alpu`` flag plus the ``alpu_count`` tally, which survives O(1)
    mid-queue removals (the flagged entries always form a prefix of the
    append order, because the driver only ever flags the oldest
    unflagged entries).
    """

    def __init__(self, name: str, allocator: AddressAllocator, discipline=None) -> None:
        self.name = name
        self.allocator = allocator
        #: insertion-ordered uid -> entry map; dict order IS queue order
        self._entries: Dict[int, QueueEntry] = {}
        self._alpu_count = 0
        self._next_seq = 0
        self.max_length = 0
        #: telemetry depth gauge (no-op unless the NIC attaches a real one)
        self._depth_gauge = NULL_GAUGE
        if discipline is None:
            from repro.nic.qdisc import FifoDiscipline

            discipline = FifoDiscipline()
        #: the pluggable search/ordering policy (repro.nic.qdisc)
        self.discipline = discipline
        discipline.attach(self)

    def attach_depth_gauge(self, gauge) -> None:
        """Mirror this queue's length into a registry gauge on mutation."""
        self._depth_gauge = gauge
        gauge.set(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QueueEntry]:
        return iter(self._entries.values())

    @property
    def entries(self) -> List[QueueEntry]:
        """The queue in FIFO order, as a list (tests and diagnostics;
        hot paths iterate the queue object itself instead)."""
        return list(self._entries.values())

    # ------------------------------------------------------- ALPU prefix
    @property
    def alpu_count(self) -> int:
        """How many of the oldest entries are mirrored in the ALPU."""
        return self._alpu_count

    @alpu_count.setter
    def alpu_count(self, value: int) -> None:
        """Re-derive the mirrored prefix to exactly ``value`` entries.

        O(n): this is the recovery/diagnostic path (firmware degrade
        resets it to 0; tests pin arbitrary prefixes).  The driver's hot
        path extends the prefix with :meth:`mark_alpu_mirrored` instead.
        """
        count = 0
        for entry in self._entries.values():
            entry.in_alpu = count < value
            count += 1
        self._alpu_count = min(value, count)

    def peek_software_suffix(self, limit: int) -> List[QueueEntry]:
        """The oldest ``limit`` not-yet-mirrored entries, in FIFO order.

        O(prefix + limit): the mirrored entries form a prefix of the
        append order, so the scan stops as soon as the batch is full.
        """
        batch: List[QueueEntry] = []
        for entry in self._entries.values():
            if entry.in_alpu:
                continue
            batch.append(entry)
            if len(batch) >= limit:
                break
        return batch

    def mark_alpu_mirrored(self, batch: Iterable[QueueEntry]) -> None:
        """Flag a just-inserted driver batch as ALPU-resident.

        The batch must be the oldest unflagged entries (what
        :meth:`peek_software_suffix` returned), preserving the
        prefix invariant.
        """
        moved = 0
        for entry in batch:
            entry.in_alpu = True
            moved += 1
        self._alpu_count += moved

    # ------------------------------------------------------------ mutation
    def allocate_entry(
        self,
        kind: EntryKind,
        bits: int,
        mask: int,
        size: int,
        **fields,
    ) -> QueueEntry:
        """Carve an entry block out of NIC memory (recycled when possible)."""
        addr = self.allocator.alloc(ENTRY_BYTES, alignment=ENTRY_BYTES)
        entry = QueueEntry(
            kind=kind, bits=bits, mask=mask, addr=addr, size=size, **fields
        )
        return entry

    def append(self, entry: QueueEntry) -> None:
        """Link an entry at the tail (the youngest end)."""
        entry.seq = self._next_seq
        self._next_seq += 1
        entry.in_alpu = False
        self._entries[entry.uid] = entry
        depth = len(self._entries)
        if depth > self.max_length:
            self.max_length = depth
        self._depth_gauge.set(depth)
        self.discipline.on_append(entry)

    def remove(self, entry: QueueEntry) -> None:
        """Unlink an entry in O(1); adjusts the ALPU-prefix tally."""
        del self._entries[entry.uid]
        if entry.in_alpu:
            entry.in_alpu = False
            self._alpu_count -= 1
        self._depth_gauge.set(len(self._entries))
        self.discipline.on_remove(entry)

    def release(self, entry: QueueEntry) -> None:
        """Return the entry's block to the allocator free list."""
        self.allocator.free(entry.addr, ENTRY_BYTES)

    def reset_stats(self) -> None:
        """Zero the high-water mark (between benchmark phases/runs)."""
        self.max_length = len(self._entries)

    # ------------------------------------------------------------- lookups
    def search_candidates(
        self, request: MatchRequest, *, suffix_only: bool = False
    ) -> Iterable[QueueEntry]:
        """The entries a software search must visit, in discipline order.

        The FIFO discipline yields plain append order (the historical
        traversal, bit-identical); sharded disciplines narrow the walk
        to the shards the request can possibly match, oldest first.
        """
        return self.discipline.candidates(request, suffix_only=suffix_only)

    def iter_fifo(self, *, suffix_only: bool = False) -> Iterable[QueueEntry]:
        """Append-order iteration, optionally skipping the ALPU prefix.

        With no prefix to skip this returns the raw store view (no
        generator frame on the search hot path).
        """
        if suffix_only and self._alpu_count:
            return self._iter_suffix()
        return self._entries.values()

    def _iter_suffix(self) -> Iterator[QueueEntry]:
        for entry in self._entries.values():
            if not entry.in_alpu:
                yield entry

    def software_suffix(self) -> List[QueueEntry]:
        """Entries not (yet) mirrored in the ALPU."""
        return list(self.iter_fifo(suffix_only=True))

    def find_by_uid(self, uid: int) -> Optional[QueueEntry]:
        """O(1) lookup by unique id (diagnostics only)."""
        return self._entries.get(uid)
