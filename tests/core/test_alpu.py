"""Unit tests for the ALPU: FSM, protocol, ordering, compaction."""

import pytest

from repro.core.alpu import (
    Alpu,
    AlpuConfig,
    AlpuError,
    AlpuMode,
    CellKind,
    CompactionReach,
)
from repro.core.commands import (
    Insert,
    MatchFailure,
    MatchSuccess,
    Reset,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.core.match import MatchFormat, MatchRequest

from tests.core.percell import flat_cells

FMT = MatchFormat()


def make(total=16, block=4, **kwargs):
    return Alpu(AlpuConfig(total_cells=total, block_size=block, **kwargs))


def insert_many(alpu, entries):
    """Drive the full Table I protocol for a batch of (bits, mask, tag)."""
    responses = alpu.submit(StartInsert())
    assert isinstance(responses[0], StartAcknowledge)
    for bits, mask, tag in entries:
        alpu.submit(Insert(bits, mask, tag))
    alpu.submit(StopInsert())


# ------------------------------------------------------------- basic FSM
def test_starts_in_match_mode_and_empty():
    alpu = make()
    assert alpu.mode is AlpuMode.MATCH
    assert alpu.occupancy == 0
    assert alpu.free_entries == 16


def test_start_insert_acknowledges_free_count():
    alpu = make(total=8, block=4)
    responses = alpu.submit(StartInsert())
    assert responses == [StartAcknowledge(free_entries=8)]
    assert alpu.mode is AlpuMode.INSERT
    alpu.submit(StopInsert())
    assert alpu.mode is AlpuMode.MATCH


def test_insert_outside_insert_mode_is_discarded():
    """Footnote 3: invalid commands in Read Command are discarded."""
    alpu = make()
    responses = alpu.submit(Insert(1, 0, 1))
    assert responses == []
    assert alpu.occupancy == 0
    assert alpu.stats.commands_discarded == 1


def test_stop_insert_outside_insert_mode_is_discarded():
    alpu = make()
    alpu.submit(StopInsert())
    assert alpu.stats.commands_discarded == 1


def test_redundant_start_insert_re_acknowledges():
    alpu = make(total=8, block=4)
    alpu.submit(StartInsert())
    responses = alpu.submit(StartInsert())
    assert responses == [StartAcknowledge(free_entries=8)]
    assert alpu.mode is AlpuMode.INSERT


def test_reset_clears_everything_and_returns_to_match():
    alpu = make()
    insert_many(alpu, [(i, 0, i) for i in range(5)])
    assert alpu.occupancy == 5
    alpu.submit(Reset())
    assert alpu.occupancy == 0
    assert alpu.mode is AlpuMode.MATCH
    assert alpu.present_header(MatchRequest(bits=3)) == [MatchFailure()]


def test_reset_works_from_insert_mode():
    alpu = make()
    alpu.submit(StartInsert())
    alpu.submit(Insert(1, 0, 1))
    alpu.submit(Reset())
    assert alpu.mode is AlpuMode.MATCH
    assert alpu.occupancy == 0


# ----------------------------------------------------------- match basics
def test_match_returns_tag_and_deletes():
    alpu = make()
    insert_many(alpu, [(100, 0, 42)])
    assert alpu.present_header(MatchRequest(bits=100)) == [MatchSuccess(tag=42)]
    assert alpu.occupancy == 0
    # delete-on-match: a second identical header now fails
    assert alpu.present_header(MatchRequest(bits=100)) == [MatchFailure()]


def test_oldest_matching_entry_wins():
    """MPI requires the first matching item in list order."""
    alpu = make()
    insert_many(alpu, [(7, 0, 1), (7, 0, 2), (7, 0, 3)])
    assert alpu.present_header(MatchRequest(bits=7)) == [MatchSuccess(tag=1)]
    assert alpu.present_header(MatchRequest(bits=7)) == [MatchSuccess(tag=2)]
    assert alpu.present_header(MatchRequest(bits=7)) == [MatchSuccess(tag=3)]


def test_ordering_across_block_boundaries():
    alpu = make(total=16, block=4)
    insert_many(alpu, [(7, 0, i) for i in range(10)])  # spans 3 blocks
    for expected in range(10):
        assert alpu.present_header(MatchRequest(bits=7)) == [
            MatchSuccess(tag=expected)
        ]


def test_oldest_hit_wins_over_an_older_miss_and_younger_hits():
    """Within one block, the oldest *matching* cell wins (the mux tree)."""
    alpu = make(total=4, block=4)
    insert_many(alpu, [(7, 0, 1), (5, 0, 2), (5, 0, 3), (5, 0, 4)])
    assert alpu.present_header(MatchRequest(bits=5)) == [MatchSuccess(tag=2)]
    assert [e.tag for e in alpu.entries()] == [1, 3, 4]


def test_unexpected_alpu_drops_stored_masks_and_honours_request_mask():
    """Fig. 2b: the unexpected-message cell has no mask storage; the
    wildcards arrive as inputs with the receive being posted."""
    alpu = make(kind=CellKind.UNEXPECTED)
    header = FMT.pack(1, 7, 5)
    insert_many(alpu, [(header, FMT.source_field_mask, 1)])
    assert [e.mask for e in alpu.entries()] == [0]
    # the dropped mask makes no wildcard: another source misses...
    assert alpu.present_header(MatchRequest(FMT.pack(1, 8, 5))) == [MatchFailure()]
    # ...but a receive carrying ANY_SOURCE as its input mask matches
    bits, mask = FMT.pack_receive(1, -1, 5)
    assert alpu.present_header(MatchRequest(bits, mask)) == [MatchSuccess(tag=1)]


def test_wildcard_entries_match_by_priority_not_specificity():
    """Unlike LPM routing, ordering beats specificity (Section II)."""
    alpu = make()
    any_source_bits, any_source_mask = FMT.pack_receive(1, -1, 5)
    exact_bits = FMT.pack(1, 3, 5)
    # wildcard first, then exact: the *wildcard* must win (it is older)
    insert_many(alpu, [(any_source_bits, any_source_mask, 1), (exact_bits, 0, 2)])
    assert alpu.present_header(MatchRequest(bits=exact_bits)) == [
        MatchSuccess(tag=1)
    ]


def test_deletion_preserves_survivor_order():
    alpu = make()
    insert_many(alpu, [(i, 0, i) for i in range(6)])
    alpu.present_header(MatchRequest(bits=3))
    assert [e.tag for e in alpu.entries()] == [0, 1, 2, 4, 5]


@pytest.mark.parametrize("total,block", [(8, 4), (16, 4), (8, 8), (32, 8)])
def test_match_at_every_cell_shifts_only_the_younger_cells(total, block):
    """Delete-on-match at cell g: the cells above g keep their contents,
    the cells below g move up one lane (across block boundaries) and
    cell 0 empties to zeros."""
    for target in range(total):
        alpu = make(total=total, block=block)
        insert_many(alpu, [(i + 1, 1 << 41, i) for i in range(total)])
        before = flat_cells(alpu)
        bits, _, tag, _ = before[target]
        assert alpu.present_header(MatchRequest(bits=bits)) == [
            MatchSuccess(tag=tag)
        ]
        after = flat_cells(alpu)
        assert after[target + 1:] == before[target + 1:]
        assert after[1:target + 1] == before[:target]
        assert after[0] == (0, 0, 0, False)
        assert alpu.occupancy == total - 1


# ---------------------------------------------------- insert-mode holding
def test_failure_held_during_insert_mode():
    alpu = make()
    alpu.submit(StartInsert())
    assert alpu.present_header(MatchRequest(bits=55)) == []
    assert alpu.has_held_request
    # the held request resolves on STOP INSERT (still failing)
    responses = alpu.submit(StopInsert())
    assert responses == [MatchFailure()]
    assert not alpu.has_held_request


def test_held_failure_retried_after_each_insert():
    alpu = make()
    alpu.submit(StartInsert())
    assert alpu.present_header(MatchRequest(bits=55)) == []
    responses = alpu.submit(Insert(55, 0, 9))
    assert responses == [MatchSuccess(tag=9)]
    assert alpu.occupancy == 0  # matched and deleted immediately


def test_success_flows_during_insert_mode():
    alpu = make()
    insert_many(alpu, [(5, 0, 1)])
    alpu.submit(StartInsert())
    assert alpu.present_header(MatchRequest(bits=5)) == [MatchSuccess(tag=1)]
    alpu.submit(StopInsert())


def test_requests_behind_a_held_failure_wait_in_order():
    alpu = make()
    insert_many(alpu, [(5, 0, 1)])
    alpu.submit(StartInsert())
    assert alpu.present_header(MatchRequest(bits=99)) == []  # held
    # a request that *would* succeed must not jump the queue
    assert alpu.present_header(MatchRequest(bits=5)) == []
    responses = alpu.submit(StopInsert())
    assert responses == [MatchFailure(), MatchSuccess(tag=1)]


def test_results_come_back_in_header_order():
    alpu = make()
    insert_many(alpu, [(1, 0, 10), (2, 0, 20)])
    match_results = [
        response
        for bits in (2, 1, 3)
        for response in alpu.present_header(MatchRequest(bits=bits))
    ]
    assert match_results == [MatchSuccess(20), MatchSuccess(10), MatchFailure()]


# ------------------------------------------------------------ capacity
def test_insert_into_full_alpu_raises():
    alpu = make(total=4, block=4)
    insert_many(alpu, [(i, 0, i) for i in range(4)])
    alpu.submit(StartInsert())
    with pytest.raises(AlpuError, match="full"):
        alpu.submit(Insert(9, 0, 9))


def test_free_count_reflects_occupancy():
    alpu = make(total=8, block=4)
    insert_many(alpu, [(i, 0, i) for i in range(3)])
    responses = alpu.submit(StartInsert())
    assert responses == [StartAcknowledge(free_entries=5)]
    alpu.submit(StopInsert())


# ----------------------------------------------------------- validation
def test_width_checks():
    alpu = make()
    with pytest.raises(AlpuError):
        alpu.present_header(MatchRequest(bits=1 << 42))
    alpu2 = make()
    alpu2.submit(StartInsert())
    with pytest.raises(AlpuError):
        alpu2.submit(Insert(1 << 42, 0, 0))
    with pytest.raises(AlpuError):
        alpu2.submit(Insert(0, 1 << 42, 0))
    with pytest.raises(AlpuError):
        alpu2.submit(Insert(0, 0, 1 << 16))
    with pytest.raises(AlpuError):
        alpu2.submit(Insert(-1, 0, 0))


def test_config_validation():
    with pytest.raises(ValueError):
        AlpuConfig(total_cells=10, block_size=4)  # not a multiple
    with pytest.raises(ValueError):
        AlpuConfig(total_cells=24, block_size=12)  # not a power of two
    with pytest.raises(ValueError):
        AlpuConfig(total_cells=16, block_size=0)
    with pytest.raises(ValueError):
        AlpuConfig(total_cells=0, block_size=4)


@pytest.mark.parametrize(
    "geometry",
    [
        *({"total_cells": 60, "block_size": size} for size in (-4, 3, 5, 6, 12)),
        {"match_width": 0},
        {"match_width": -1},
        {"tag_width": 0},
    ],
)
def test_config_rejects_bad_geometry(geometry):
    """Non-power-of-two or non-positive block sizes, non-positive widths."""
    with pytest.raises(ValueError):
        AlpuConfig(**{"total_cells": 8, "block_size": 4, **geometry})


# ------------------------------------------------------------ compaction
def test_data_drifts_toward_the_oldest_end():
    """'List items are inserted from the left and progress to the right.'"""
    alpu = make(total=8, block=4)
    insert_many(alpu, [(1, 0, 1)])
    for _ in range(10):
        alpu.compact_step()
    # the single entry should have migrated to the highest cell
    assert alpu._valid == 1 << 7


def test_compaction_preserves_order():
    alpu = make(total=8, block=4)
    insert_many(alpu, [(i, 0, i) for i in range(5)])
    before = [e.tag for e in alpu.entries()]
    for _ in range(20):
        alpu.compact_step()
    assert [e.tag for e in alpu.entries()] == before


def test_global_reach_behaves_like_block_reach_for_ordering():
    for reach in (CompactionReach.BLOCK, CompactionReach.GLOBAL):
        alpu = make(total=16, block=4, compaction_reach=reach)
        insert_many(alpu, [(i, 0, i) for i in range(9)])
        alpu.present_header(MatchRequest(bits=4))
        for _ in range(30):
            alpu.compact_step()
        assert [e.tag for e in alpu.entries()] == [0, 1, 2, 3, 5, 6, 7, 8]


@pytest.mark.parametrize(
    "valid,hole",
    [(0b1, 1), (0b1011, 2), (0b1100, 4), (0b10110, 3), (0b1111, 4)],
)
def test_lowest_hole_with_valid_below(valid, hole):
    """Holes below the lowest valid cell have nothing to pull down; a
    hole-free run reports a position past it (callers bound it)."""
    assert Alpu._lowest_hole_with_valid_below(valid) == hole


def place(alpu, cells):
    """Latch entries straight into the packed cells; tag = cell index."""
    for cell in cells:
        alpu._tags |= cell << cell * alpu._t
        alpu._valid |= 1 << cell
        alpu._valid_guard |= 1 << cell * alpu._s + alpu._w


BLOCK, GLOBAL = CompactionReach.BLOCK, CompactionReach.GLOBAL


@pytest.mark.parametrize(
    "reach,cells,after",
    [
        # two blocks each pull their own hole down in the same clock...
        (BLOCK, (0, 2, 3, 4, 5, 6), 0b11101110),
        # ...where GLOBAL reach moves only the run below the lowest hole
        (GLOBAL, (0, 2, 3, 4, 5, 6), 0b01111110),
        # a block whose older neighbour's lowest cell is free moves whole
        (BLOCK, (0, 1, 2, 3, 5, 6, 7), 0b11111110),
        (GLOBAL, (0, 1, 2, 3, 5, 6, 7), 0b11111110),
        # a full block stays put while the next block's lowest cell is
        # occupied; GLOBAL reach shifts across it to the hole above
        (BLOCK, (0, 1, 2, 3, 4), 0b00101111),
        (GLOBAL, (0, 1, 2, 3, 4), 0b00111110),
    ],
)
def test_one_compaction_clock(reach, cells, after):
    alpu = make(total=8, block=4, compaction_reach=reach)
    place(alpu, cells)
    assert alpu.compact_step()
    assert alpu._valid == after
    # moving cells carry their contents: order is preserved
    assert [e.tag for e in alpu.entries()] == sorted(cells, reverse=True)


@pytest.mark.parametrize(
    "reach,stalls,steps",
    [(CompactionReach.BLOCK, 11, 31), (CompactionReach.GLOBAL, 0, 20)],
)
def test_insert_stall_and_compaction_cycles(reach, stalls, steps):
    """Refilling the youngest block of a full ALPU: under BLOCK reach the
    full older block cannot take a shift, so inserts stall until holes
    migrate; GLOBAL reach always has the hole ready."""
    alpu = make(total=16, block=4, compaction_reach=reach)
    insert_many(alpu, [(i, 0, i) for i in range(16)])
    for oldest in range(4):
        alpu.present_header(MatchRequest(bits=oldest))
    insert_many(alpu, [(100 + i, 0, 100 + i) for i in range(4)])
    assert alpu.stats.insert_stall_cycles == stalls
    assert alpu.stats.compaction_steps == steps
    assert [e.tag for e in alpu.entries()] == [*range(4, 16), 100, 101, 102, 103]


def test_compact_step_reports_quiescence():
    alpu = make(total=8, block=4)
    insert_many(alpu, [(1, 0, 1)])
    while alpu.compact_step():
        pass
    assert alpu.compact_step() is False  # fully packed: nothing moves


def test_entries_capacity_and_occupancy_invariant():
    alpu = make(total=8, block=4)
    insert_many(alpu, [(i, 0, i) for i in range(8)])
    assert alpu.occupancy == 8
    assert alpu.free_entries == 0
    alpu.present_header(MatchRequest(bits=0))
    assert alpu.occupancy == 7
    assert len(alpu.entries()) == 7
