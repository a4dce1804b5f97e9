"""Unit tests for the golden linear match list."""

from repro.core.match import MatchEntry, MatchFormat, MatchRequest
from repro.core.reference import ReferenceMatchList

FMT = MatchFormat()


def entry(context, source, tag, payload):
    bits, mask = FMT.pack_receive(context, source, tag)
    return MatchEntry(bits=bits, mask=mask, tag=payload)


def test_first_match_wins_and_is_removed():
    queue = ReferenceMatchList()
    queue.append(entry(1, 2, 3, payload=10))
    queue.append(entry(1, 2, 3, payload=11))
    matched, traversed = queue.match(MatchRequest(FMT.pack(1, 2, 3)))
    assert matched.tag == 10
    assert traversed == 1
    assert [e.tag for e in queue] == [11]


def test_traversal_count_reflects_depth():
    queue = ReferenceMatchList()
    for i in range(5):
        queue.append(entry(1, 2, i, payload=i))
    matched, traversed = queue.match(MatchRequest(FMT.pack(1, 2, 4)))
    assert matched.tag == 4
    assert traversed == 5


def test_failed_match_traverses_everything():
    queue = ReferenceMatchList()
    for i in range(3):
        queue.append(entry(1, 2, i, payload=i))
    matched, traversed = queue.match(MatchRequest(FMT.pack(1, 2, 9)))
    assert matched is None
    assert traversed == 3
    assert len(queue) == 3  # nothing removed


def test_snapshot_is_a_copy():
    queue = ReferenceMatchList()
    queue.append(entry(1, 2, 3, payload=1))
    snapshot = queue.snapshot()
    queue.clear()
    assert len(snapshot) == 1
    assert len(queue) == 0
