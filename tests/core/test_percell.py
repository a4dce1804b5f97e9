"""Unit tests for the per-cell test oracle: the cell and its mux tree."""

import pytest
from hypothesis import given, strategies as st

from repro.core import CellKind
from repro.core.match import MatchEntry, MatchFormat, MatchRequest

from tests.core.percell import Cell, PerCellBlock, priority_select

FMT = MatchFormat()


# ------------------------------------------------------- priority_select
def test_priority_select_takes_highest_index():
    found, location, tag = priority_select(
        [True, False, True, False], [10, 11, 12, 13]
    )
    assert (found, location, tag) == (True, 2, 12)


def test_priority_select_no_match():
    found, _, _ = priority_select([False] * 4, [0, 1, 2, 3])
    assert not found


def test_priority_select_single_element():
    assert priority_select([True], [9]) == (True, 0, 9)
    assert priority_select([False], [9])[0] is False


def test_priority_select_requires_power_of_two():
    with pytest.raises(ValueError):
        priority_select([True, False, True], [1, 2, 3])
    with pytest.raises(ValueError):
        priority_select([], [])


def test_priority_select_length_mismatch():
    with pytest.raises(ValueError):
        priority_select([True, False], [1])


@given(st.lists(st.booleans(), min_size=1, max_size=64).filter(
    lambda flags: len(flags) & (len(flags) - 1) == 0
))
def test_priority_select_matches_naive_scan(flags):
    tags = list(range(len(flags)))
    found, location, tag = priority_select(flags, tags)
    expected = max((i for i, f in enumerate(flags) if f), default=None)
    if expected is None:
        assert not found
    else:
        assert (found, location, tag) == (True, expected, expected)


# ------------------------------------------------------------------ cell
def test_invalid_cell_never_matches():
    cell = Cell(CellKind.POSTED_RECEIVE)
    cell.bits = 0
    assert not cell.match(MatchRequest(bits=0))


def test_posted_receive_cell_stores_its_mask():
    cell = Cell(CellKind.POSTED_RECEIVE)
    bits, mask = FMT.pack_receive(1, -1, 5)  # ANY_SOURCE
    cell.load(MatchEntry(bits=bits, mask=mask, tag=3))
    assert cell.mask == mask
    assert cell.match(MatchRequest(FMT.pack(1, 999, 5)))
    assert not cell.match(MatchRequest(FMT.pack(1, 999, 6)))


def test_unexpected_cell_ignores_entry_mask_and_uses_request_mask():
    """Fig. 2b: 'Instead of storing the mask bits in each cell, the mask
    bits are inputs.'"""
    cell = Cell(CellKind.UNEXPECTED)
    # even if a mask is supplied at load, the cell has nowhere to keep it
    cell.load(MatchEntry(bits=FMT.pack(1, 7, 5), mask=FMT.source_field_mask, tag=1))
    assert cell.mask == 0
    # explicit request mismatching the source fails...
    assert not cell.match(MatchRequest(FMT.pack(1, 8, 5)))
    # ...but a request carrying an ANY_SOURCE input mask matches
    bits, mask = FMT.pack_receive(1, -1, 5)
    assert cell.match(MatchRequest(bits=bits, mask=mask))


def test_clear_drops_valid_only():
    cell = Cell(CellKind.POSTED_RECEIVE)
    cell.load(MatchEntry(bits=5, mask=0, tag=9))
    cell.clear()
    assert not cell.valid
    assert cell.snapshot() is None
    assert (cell.bits, cell.tag) == (5, 9)


def test_copy_from_transfers_all_state():
    source = Cell(CellKind.POSTED_RECEIVE)
    source.load(MatchEntry(bits=42, mask=7, tag=13))
    dest = Cell(CellKind.POSTED_RECEIVE)
    dest.copy_from(source)
    assert (dest.bits, dest.mask, dest.tag, dest.valid) == (42, 7, 13, True)
    # copying an invalid neighbour propagates the hole
    source.clear()
    dest.copy_from(source)
    assert not dest.valid


def test_snapshot_roundtrip():
    entry = MatchEntry(bits=77, mask=1, tag=2)
    cell = Cell(CellKind.POSTED_RECEIVE)
    cell.load(entry)
    assert cell.snapshot() == entry


# ----------------------------------------------------------------- block
def loaded_block(tags, size=4):
    """Block with cells 0..len(tags)-1 loaded; bits equal tag for ease."""
    block = PerCellBlock(CellKind.POSTED_RECEIVE, size)
    for cell, tag in zip(block.cells, tags):
        cell.load(MatchEntry(bits=tag, mask=0, tag=tag))
    return block


def test_block_match_prefers_oldest_cell():
    """Highest local index == oldest == MPI's 'first in list order'."""
    block = loaded_block([5, 5, 5, 7])
    assert block.match(MatchRequest(bits=5)) == (True, 2, 5)
    assert block.match(MatchRequest(bits=9))[0] is False


def test_shift_up_through_deletes_and_compacts():
    block = loaded_block([10, 11, 12, 13])
    # delete local cell 2: cells 0..1 shift to 1..2, cell 0 empties
    block.shift_up_through(2, incoming=None)
    assert [c.tag if c.valid else None for c in block.cells] == [None, 10, 11, 13]


def test_shift_up_through_with_incoming_latches_it():
    block = loaded_block([10, 11, 12, 13])
    block.shift_up_through(3, (0, 0, 99, True))  # (bits, mask, tag, valid)
    assert [c.tag for c in block.cells] == [99, 10, 11, 12]


def test_lowest_hole_with_valid_below():
    assert loaded_block([]).lowest_hole_with_valid_below() is None
    assert loaded_block([1, 2]).lowest_hole_with_valid_below() == 2
    assert loaded_block([1, 2, 3, 4]).lowest_hole_with_valid_below() is None
    block = loaded_block([1, 2, 3])
    block.cells[0].clear()
    assert block.lowest_hole_with_valid_below() == 3


def test_block_valid_flags():
    assert not loaded_block([]).any_valid
    assert not loaded_block([]).bottom_valid
    block = loaded_block([1, 2])
    assert block.any_valid and block.bottom_valid
    block.cells[0].clear()
    assert block.any_valid and not block.bottom_valid
