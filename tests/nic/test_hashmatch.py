"""Tests for the hash-table matching alternative (Section II).

Unit-level cost/ordering properties only: the randomized differential
coverage (hash vs the oracle, alongside every other registered backend)
lives in ``tests/nic/test_backend_differential.py`` on the shared
traffic harness.
"""

import pytest

from repro.core.match import ANY_SOURCE, MatchFormat, MatchRequest
from repro.memory.layout import AddressAllocator
from repro.nic.firmware import FirmwareConfig
from repro.nic.backends.hashmatch import HashMatchTable
from repro.nic.queues import EntryKind, NicQueue

FMT = MatchFormat()


def make_entry(queue, context, source, tag):
    bits, mask = FMT.pack_receive(context, source, tag)
    entry = queue.allocate_entry(EntryKind.POSTED_RECV, bits=bits, mask=mask, size=0)
    queue.append(entry)
    return entry


@pytest.fixture
def setup():
    queue = NicQueue("q", AddressAllocator())
    table = HashMatchTable(FMT)
    return queue, table


def test_exact_match_probes_and_removes(setup):
    queue, table = setup
    entry = make_entry(queue, 1, 2, 3)
    table.insert(entry)
    found, cost = table.match_incoming(MatchRequest(FMT.pack(1, 2, 3)))
    assert found is entry
    assert len(table) == 0
    assert cost.cycles > 0 and cost.touches


def test_miss_probes_all_four_classes(setup):
    queue, table = setup
    _, cost = table.match_incoming(MatchRequest(FMT.pack(1, 2, 3)))
    # four wildcard-class probes even on an empty table: the price of
    # wildcard support in a hash (Section II)
    assert len(cost.touches) == 4


def test_ordering_beats_specificity_across_classes(setup):
    """The hash must still prefer the *older* wildcard receive over a
    newer exact one -- buckets cannot shortcut MPI ordering."""
    queue, table = setup
    wildcard = make_entry(queue, 1, ANY_SOURCE, 7)
    exact = make_entry(queue, 1, 4, 7)
    table.insert(wildcard)
    table.insert(exact)
    found, _ = table.match_incoming(MatchRequest(FMT.pack(1, 4, 7)))
    assert found is wildcard
    found, _ = table.match_incoming(MatchRequest(FMT.pack(1, 4, 7)))
    assert found is exact


def test_reverse_lookup_exact_is_one_probe(setup):
    queue, table = setup
    header = make_entry(queue, 1, 4, 9)  # an arrived message (no mask)
    table.insert(header)
    bits, mask = FMT.pack_receive(1, 4, 9)
    found, cost = table.match_posted_receive(MatchRequest(bits=bits, mask=mask))
    assert found is header
    # one bucket probe + one candidate compare + removal
    probe_touches = [t for t in cost.touches]
    assert len(probe_touches) <= 4


def test_reverse_lookup_with_wildcard_degenerates_to_scan(setup):
    """ANY_SOURCE receives cannot be bucket-addressed: full scan."""
    queue, table = setup
    for source in range(8):
        table.insert(make_entry(queue, 1, source, 9))
    bits, mask = FMT.pack_receive(1, ANY_SOURCE, 9)
    found, cost = table.match_posted_receive(MatchRequest(bits=bits, mask=mask))
    assert found is not None
    # it had to visit many buckets, not one
    assert len(cost.touches) > 4
    # and it still returned the OLDEST (first-inserted) header
    _, src, _ = FMT.unpack(found.bits)
    assert src == 0


def test_insert_costs_more_than_a_list_append(setup):
    queue, table = setup
    entry = make_entry(queue, 1, 2, 3)
    cost = table.insert(entry)
    # hash + two scattered line writes: dearer than the list's one
    # sequential write -- the zero-length ping-pong regression
    assert cost.cycles >= 20
    assert sum(1 for _, _, write in cost.touches if write) >= 2


def test_remove_missing_entry_raises(setup):
    queue, table = setup
    entry = make_entry(queue, 1, 2, 3)
    with pytest.raises(KeyError):
        table.remove(entry)


def test_firmware_config_rejects_unknown_engine():
    with pytest.raises(ValueError):
        FirmwareConfig(matching="btree")
