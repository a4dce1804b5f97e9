"""Unit tests for the firmware queue structures."""

from repro.core.match import MatchFormat, MatchRequest
from repro.memory.layout import AddressAllocator
from repro.nic.queues import ENTRY_BYTES, EntryKind, NicQueue

FMT = MatchFormat()


def make_queue():
    return NicQueue("q", AddressAllocator(base=0x1000))


def test_entries_live_at_aligned_disjoint_addresses():
    queue = make_queue()
    entries = [
        queue.allocate_entry(EntryKind.POSTED_RECV, bits=i, mask=0, size=0)
        for i in range(4)
    ]
    addresses = [e.addr for e in entries]
    assert len(set(addresses)) == 4
    assert all(addr % ENTRY_BYTES == 0 for addr in addresses)


def test_released_entries_recycle_addresses():
    queue = make_queue()
    entry = queue.allocate_entry(EntryKind.POSTED_RECV, bits=0, mask=0, size=0)
    queue.release(entry)
    again = queue.allocate_entry(EntryKind.POSTED_RECV, bits=1, mask=0, size=0)
    assert again.addr == entry.addr


def test_alpu_prefix_pointer_tracks_removals():
    queue = make_queue()
    entries = []
    for i in range(5):
        entry = queue.allocate_entry(EntryKind.POSTED_RECV, bits=i, mask=0, size=0)
        queue.append(entry)
        entries.append(entry)
    queue.alpu_count = 3
    # removing a prefix (ALPU-resident) entry shrinks the prefix
    queue.remove(entries[1])
    assert queue.alpu_count == 2
    # removing a suffix entry leaves the prefix alone
    queue.remove(entries[4])
    assert queue.alpu_count == 2
    assert [e.bits for e in queue.iter_fifo(suffix_only=True)] == [3]


def test_software_suffix_view():
    queue = make_queue()
    for i in range(4):
        queue.append(
            queue.allocate_entry(EntryKind.POSTED_RECV, bits=i, mask=0, size=0)
        )
    queue.alpu_count = 2
    assert [e.bits for e in queue.iter_fifo(suffix_only=True)] == [2, 3]


def test_uids_are_unique():
    queue = make_queue()
    a = queue.allocate_entry(EntryKind.POSTED_RECV, bits=0, mask=0, size=0)
    b = queue.allocate_entry(EntryKind.POSTED_RECV, bits=0, mask=0, size=0)
    assert a.uid != b.uid


def test_entry_matching_honours_wildcards():
    queue = make_queue()
    bits, mask = FMT.pack_receive(1, -1, 7)
    entry = queue.allocate_entry(EntryKind.POSTED_RECV, bits=bits, mask=mask, size=0)
    assert entry.matches(MatchRequest(FMT.pack(1, 30, 7)))
    assert not entry.matches(MatchRequest(FMT.pack(1, 30, 8)))


def test_max_length_statistic():
    queue = make_queue()
    for i in range(3):
        queue.append(
            queue.allocate_entry(EntryKind.POSTED_RECV, bits=i, mask=0, size=0)
        )
    queue.remove(queue.entries[0])
    assert queue.max_length == 3
    assert len(queue) == 2
