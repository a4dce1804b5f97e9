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

The store is three parallel lists in FIFO order -- the entries, their
match bits and their block addresses -- plus a count of entries with a
nonzero mask.  An exact search over unmasked entries is then one
C-level ``bits.index`` and its visits one slice of ``addrs``, and the
ALPU-mirrored prefix is simply the first ``alpu_count`` positions.
``remove`` locates an entry by identity (``list.index``, after an O(1)
check of the tail); matches land near the head or the tail, where the
unlink stays cheap.  *Which* entries a search visits (and in what order)
is delegated to a pluggable :class:`~repro.nic.qdisc.QueueDiscipline`;
the default FIFO discipline reproduces plain linear traversal
bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Iterable, Iterator, List

from repro.core.match import MatchRequest
from repro.memory.layout import AddressAllocator


class EntryKind(enum.Enum):
    """What a queue entry represents."""

    POSTED_RECV = "posted_recv"
    UNEXPECTED_EAGER = "unexpected_eager"
    UNEXPECTED_RNDV = "unexpected_rndv"
    SEND = "send"


# the members as module globals, for the firmware's per-message path (a
# load through the enum class is slow; see repro.network.packet)
POSTED_RECV = EntryKind.POSTED_RECV
UNEXPECTED_EAGER = EntryKind.UNEXPECTED_EAGER
UNEXPECTED_RNDV = EntryKind.UNEXPECTED_RNDV
SEND = EntryKind.SEND


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
    #: the matched message's send id: set on arrival for unexpected
    #: entries (the rendezvous CTS needs it), at pairing for posted
    #: receives; a receive's completion reports it
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
    the ALPU and which have not" -- here that pointer is ``alpu_count``:
    the driver only ever mirrors the oldest unmirrored entries, so the
    mirrored ones are always the first ``alpu_count`` positions, and a
    removal inside the prefix shrinks it by one.

    ``entries``, ``bits`` and ``addrs`` are parallel lists in FIFO
    order, and ``masked`` counts the entries with a nonzero mask; all
    four are read-only outside this class.
    """

    def __init__(self, name: str, allocator: AddressAllocator, discipline=None) -> None:
        self.name = name
        self.allocator = allocator
        self.entries: List[QueueEntry] = []
        self.bits: List[int] = []
        self.addrs: List[int] = []
        self.masked = 0
        #: how many of the oldest entries are mirrored in the ALPU (the
        #: firmware's degrade path resets it to 0)
        self.alpu_count = 0
        self._next_seq = 0
        #: the deepest the queue has ever been
        self.max_length = 0
        if discipline is None:
            from repro.nic.qdisc import FifoDiscipline

            discipline = FifoDiscipline()
        #: the pluggable search/ordering policy (repro.nic.qdisc)
        self.discipline = discipline
        discipline.attach(self)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[QueueEntry]:
        return iter(self.entries)

    # ------------------------------------------------------- ALPU prefix
    def peek_software_suffix(self, limit: int) -> List[QueueEntry]:
        """The oldest ``limit`` not-yet-mirrored entries, in FIFO order."""
        start = self.alpu_count
        return self.entries[start:start + limit]

    def mark_alpu_mirrored(self, batch: List[QueueEntry]) -> None:
        """Extend the prefix over a just-inserted driver batch.

        The batch must be the oldest unmirrored entries (what
        :meth:`peek_software_suffix` returned).
        """
        self.alpu_count += len(batch)

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
        self.entries.append(entry)
        self.bits.append(entry.bits)
        self.addrs.append(entry.addr)
        if entry.mask:
            self.masked += 1
        depth = len(self.entries)
        if depth > self.max_length:
            self.max_length = depth
        self.discipline.on_append(entry)

    def remove(self, entry: QueueEntry) -> None:
        """Unlink an entry; adjusts the ALPU-prefix count."""
        entries = self.entries
        pos = len(entries) - 1
        if entries[pos] is not entry:  # the tail is O(1); else scan from the head
            pos = entries.index(entry)
        del entries[pos]
        del self.bits[pos]
        del self.addrs[pos]
        if entry.mask:
            self.masked -= 1
        if pos < self.alpu_count:
            self.alpu_count -= 1
        self.discipline.on_remove(entry)

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

    def iter_fifo(self, *, suffix_only: bool = False) -> List[QueueEntry]:
        """Append order, optionally without the ALPU prefix.

        With no prefix to skip this returns the store itself (no copy on
        the search hot path).
        """
        if suffix_only and self.alpu_count:
            return self.entries[self.alpu_count:]
        return self.entries
