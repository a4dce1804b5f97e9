"""Differential property tests: SWAR-vectorized block vs the per-cell model.

``repro.core.block`` packs a block's cells into big-int SWAR state; the
pre-vectorization implementation kept a list of
:class:`~repro.core.cell.Cell` objects and scanned them.  These tests
hold the two equal three ways:

* **block level** -- a faithful :class:`PerCellBlock` re-implementation of
  the old object model is driven in lockstep with :class:`CellBlock`
  through random load/clear/set-bottom/shift/match sequences; every cell
  snapshot, observer, displaced-cell tuple and match triple must agree,
  including the stale-contents-on-invalid quirk;
* **mux level** -- ``CellBlock.match`` must equal :func:`priority_select`
  fed with per-cell :meth:`Cell.match` flags over ``snapshot_cells()``;
* **ALPU level** -- a full :class:`Alpu` built over ``PerCellBlock`` runs
  the same insert/match trace as the vectorized one and the
  :class:`ReferenceMatchList` oracle; responses, survivor order and every
  :class:`AlpuStats` counter (the cycle counts: compaction steps, insert
  stalls, held retries) must be identical.

Plus the explicit edges: non-power-of-two geometry rejection, load range
validation, and all-invalid blocks reporting lane 0's stale tag.
"""

import dataclasses
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.alpu as alpu_module
from repro.core.alpu import Alpu, AlpuConfig, CompactionReach
from repro.core.block import CellBlock, CellTuple, priority_select
from repro.core.cell import Cell, CellKind
from repro.core.commands import (
    Insert,
    MatchFailure,
    MatchSuccess,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.core.match import MatchEntry, MatchFormat, MatchRequest
from repro.core.reference import ReferenceMatchList

# small widths keep the packed ints readable and make collisions common
W = 6
TAG_W = 4
LANE = (1 << W) - 1
TAG_MASK = (1 << TAG_W) - 1


class PerCellBlock:
    """The pre-vectorization object model, preserved as a test oracle.

    One :class:`Cell` per position, a top-down match scan (the scan form
    of the priority-mux tree), and a per-cell ``copy_from`` shift loop --
    exactly the implementation :class:`CellBlock` replaced, adapted to
    the same :data:`CellTuple` interface so an :class:`Alpu` can be built
    over it unchanged.
    """

    def __init__(
        self,
        kind: CellKind,
        size: int,
        index: int = 0,
        *,
        match_width: int = 42,
        tag_width: int = 16,
    ) -> None:
        self.kind = kind
        self.size = size
        self.index = index
        self.match_width = match_width
        self.tag_width = tag_width
        self.cells: List[Cell] = [Cell(kind) for _ in range(size)]
        self.registered_request: Optional[MatchRequest] = None

    # ------------------------------------------------------------ observers
    @property
    def occupancy(self) -> int:
        return sum(1 for cell in self.cells if cell.valid)

    @property
    def valid_mask(self) -> int:
        out = 0
        for position, cell in enumerate(self.cells):
            if cell.valid:
                out |= 1 << position
        return out

    @property
    def is_full(self) -> bool:
        return all(cell.valid for cell in self.cells)

    @property
    def bottom_empty(self) -> bool:
        return not self.cells[0].valid

    @property
    def bottom_valid(self) -> bool:
        return self.cells[0].valid

    def lowest_hole_above(self, local_index: int) -> Optional[int]:
        for position in range(local_index + 1, self.size):
            if not self.cells[position].valid:
                return position
        return None

    def lowest_hole(self) -> Optional[int]:
        for position, cell in enumerate(self.cells):
            if not cell.valid:
                return position
        return None

    # ----------------------------------------------------------- cell access
    def cell_tuple(self, local_index: int) -> CellTuple:
        cell = self.cells[local_index]
        return (cell.bits, cell.mask, cell.tag, cell.valid)

    def top_cell(self) -> CellTuple:
        return self.cell_tuple(self.size - 1)

    def entry_at(self, local_index: int) -> Optional[MatchEntry]:
        cell = self.cells[local_index]
        if not cell.valid:
            return None
        return MatchEntry(bits=cell.bits, mask=cell.mask, tag=cell.tag)

    def snapshot_cells(self) -> List[Cell]:
        return [
            Cell(self.kind, bits=c.bits, mask=c.mask, tag=c.tag, valid=c.valid)
            for c in self.cells
        ]

    def load(self, local_index: int, entry: MatchEntry) -> None:
        cell = self.cells[local_index]
        cell.bits = entry.bits
        cell.mask = entry.mask if self.kind is CellKind.POSTED_RECEIVE else 0
        cell.tag = entry.tag
        cell.valid = True

    def set_bottom(self, incoming: CellTuple) -> None:
        cell = self.cells[0]
        cell.bits, cell.mask, cell.tag, cell.valid = incoming

    def clear_cell(self, local_index: int) -> None:
        # hardware drops only the valid bit; stored data goes stale in place
        self.cells[local_index].valid = False

    def clear_valid(self) -> None:
        for cell in self.cells:
            cell.valid = False

    # -------------------------------------------------------------- matching
    def register_request(self, request: MatchRequest) -> None:
        self.registered_request = request

    def match(
        self, request: Optional[MatchRequest] = None
    ) -> Tuple[bool, int, int]:
        if request is None:
            request = self.registered_request
            if request is None:
                raise RuntimeError("match() with no registered request")
        for location in range(self.size - 1, -1, -1):
            cell = self.cells[location]
            if cell.valid and (
                (cell.bits ^ request.bits) & ~(cell.mask | request.mask)
            ) == 0:
                return True, location, cell.tag
        return False, 0, self.cells[0].tag

    # -------------------------------------------------------------- shifting
    def shift_up_through(
        self, local_index: int, incoming: Optional[CellTuple]
    ) -> CellTuple:
        displaced = self.cell_tuple(local_index)
        for position in range(local_index, 0, -1):
            self.cells[position].copy_from(self.cells[position - 1])
        cell = self.cells[0]
        if incoming is not None:
            cell.bits, cell.mask, cell.tag, cell.valid = incoming
        else:
            cell.bits = cell.mask = cell.tag = 0
            cell.valid = False
        return displaced


# ---------------------------------------------------------------- strategies
bits_values = st.integers(0, LANE)
mask_values = st.one_of(st.just(0), st.integers(0, LANE))
tag_values = st.integers(0, TAG_MASK)
entry_values = st.builds(
    MatchEntry, bits=bits_values, mask=mask_values, tag=tag_values
)
cell_tuples = st.tuples(bits_values, mask_values, tag_values, st.booleans())


@st.composite
def block_scenarios(draw):
    """A geometry plus a random op sequence addressed within it."""
    size = draw(st.sampled_from([1, 2, 4, 8]))
    kind = draw(st.sampled_from([CellKind.POSTED_RECEIVE, CellKind.UNEXPECTED]))
    indices = st.integers(0, size - 1)
    ops = []
    for _ in range(draw(st.integers(1, 50))):
        op = draw(
            st.sampled_from(
                ["load", "load", "clear", "set_bottom", "shift", "shift",
                 "match", "match", "clear_valid"]
            )
        )
        if op == "load":
            ops.append(("load", draw(indices), draw(entry_values)))
        elif op == "clear":
            ops.append(("clear", draw(indices)))
        elif op == "set_bottom":
            ops.append(("set_bottom", draw(cell_tuples)))
        elif op == "shift":
            ops.append(
                ("shift", draw(indices), draw(st.none() | cell_tuples))
            )
        elif op == "match":
            ops.append(("match", draw(bits_values), draw(mask_values)))
        else:
            ops.append(("clear_valid",))
    return size, kind, ops


def assert_same_state(vec: CellBlock, ref: PerCellBlock) -> None:
    size = vec.size
    assert [vec.cell_tuple(i) for i in range(size)] == [
        ref.cell_tuple(i) for i in range(size)
    ]
    assert vec.occupancy == ref.occupancy
    assert vec.valid_mask == ref.valid_mask
    assert vec.is_full == ref.is_full
    assert vec.bottom_empty == ref.bottom_empty
    assert vec.bottom_valid == ref.bottom_valid
    assert vec.lowest_hole() == ref.lowest_hole()
    for i in range(size):
        assert vec.lowest_hole_above(i) == ref.lowest_hole_above(i)


def mux_tree_match(block, request: MatchRequest) -> Tuple[bool, int, int]:
    """The third opinion: priority_select over per-cell compare flags."""
    cells = block.snapshot_cells()
    flags = [cell.match(request) for cell in cells]
    tags = [cell.tag for cell in cells]
    return priority_select(flags, tags)


@settings(max_examples=250)
@given(scenario=block_scenarios())
def test_vectorized_block_equals_per_cell_model(scenario):
    """Lockstep drive: every snapshot, observer and result must agree."""
    size, kind, ops = scenario
    vec = CellBlock(kind, size, match_width=W, tag_width=TAG_W)
    ref = PerCellBlock(kind, size, match_width=W, tag_width=TAG_W)
    for op in ops:
        if op[0] == "load":
            vec.load(op[1], op[2])
            ref.load(op[1], op[2])
        elif op[0] == "clear":
            vec.clear_cell(op[1])
            ref.clear_cell(op[1])
        elif op[0] == "set_bottom":
            vec.set_bottom(op[1])
            ref.set_bottom(op[1])
        elif op[0] == "shift":
            assert vec.shift_up_through(op[1], op[2]) == ref.shift_up_through(
                op[1], op[2]
            )
        elif op[0] == "match":
            request = MatchRequest(bits=op[1], mask=op[2])
            vec.register_request(request)
            ref.register_request(request)
            result = vec.match()
            assert result == ref.match()
            assert result == mux_tree_match(vec, request)
        else:
            vec.clear_valid()
            ref.clear_valid()
        assert_same_state(vec, ref)


# ------------------------------------------------------------- geometry edges
@pytest.mark.parametrize("size", [0, 3, 5, 6, 12, -4])
def test_block_rejects_non_power_of_two_size(size):
    with pytest.raises(ValueError):
        CellBlock(CellKind.POSTED_RECEIVE, size)


@pytest.mark.parametrize("match_width,tag_width", [(0, 4), (-1, 4), (6, 0)])
def test_block_rejects_non_positive_widths(match_width, tag_width):
    with pytest.raises(ValueError):
        CellBlock(
            CellKind.POSTED_RECEIVE,
            4,
            match_width=match_width,
            tag_width=tag_width,
        )


def test_alpu_config_rejects_non_power_of_two_block():
    with pytest.raises(ValueError):
        AlpuConfig(total_cells=12, block_size=3)


def test_load_rejects_out_of_range_fields():
    block = CellBlock(CellKind.POSTED_RECEIVE, 4, match_width=W, tag_width=TAG_W)
    with pytest.raises(ValueError):
        block.load(0, MatchEntry(bits=LANE + 1, mask=0, tag=0))
    with pytest.raises(ValueError):
        block.load(0, MatchEntry(bits=0, mask=LANE + 1, tag=0))
    with pytest.raises(ValueError):
        block.load(0, MatchEntry(bits=0, mask=0, tag=TAG_MASK + 1))


# ---------------------------------------------------------- all-invalid edges
def test_fresh_block_match_fails_with_zero_tag():
    block = CellBlock(CellKind.POSTED_RECEIVE, 8, match_width=W, tag_width=TAG_W)
    assert block.match(MatchRequest(bits=0)) == (False, 0, 0)
    assert block.occupancy == 0
    assert block.lowest_hole() == 0


def test_all_invalid_block_reports_lane0_stale_tag():
    """Invalidation drops only the valid bit; lane 0's tag stays visible."""
    vec = CellBlock(CellKind.POSTED_RECEIVE, 4, match_width=W, tag_width=TAG_W)
    ref = PerCellBlock(CellKind.POSTED_RECEIVE, 4, match_width=W, tag_width=TAG_W)
    for block in (vec, ref):
        block.load(0, MatchEntry(bits=5, mask=0, tag=7))
        block.load(1, MatchEntry(bits=5, mask=0, tag=9))
        block.clear_valid()
    request = MatchRequest(bits=5)
    assert vec.match(request) == (False, 0, 7)
    assert vec.match(request) == ref.match(request)
    assert vec.occupancy == 0 and not vec.is_full
    assert_same_state(vec, ref)


def test_clear_cell_leaves_stale_contents_in_place():
    vec = CellBlock(CellKind.POSTED_RECEIVE, 4, match_width=W, tag_width=TAG_W)
    ref = PerCellBlock(CellKind.POSTED_RECEIVE, 4, match_width=W, tag_width=TAG_W)
    for block in (vec, ref):
        block.load(2, MatchEntry(bits=3, mask=0, tag=11))
        block.clear_cell(2)
    assert vec.cell_tuple(2) == (3, 0, 11, False)
    assert vec.match(MatchRequest(bits=3))[0] is False
    assert_same_state(vec, ref)


# --------------------------------------------------------- ALPU-level lockstep
FMT = MatchFormat()
contexts = st.integers(0, 1)
sources = st.integers(0, 3)
tags = st.integers(0, 3)


@dataclasses.dataclass(frozen=True)
class InsertOp:
    context: int
    source: int  # -1 = ANY_SOURCE
    tag: int  # -1 = ANY_TAG


@dataclasses.dataclass(frozen=True)
class MatchOp:
    context: int
    source: int
    tag: int


insert_ops = st.builds(
    InsertOp,
    context=contexts,
    source=st.one_of(st.just(-1), sources),
    tag=st.one_of(st.just(-1), tags),
)
match_ops = st.builds(MatchOp, context=contexts, source=sources, tag=tags)
traces = st.lists(
    st.one_of(match_ops, st.lists(insert_ops, min_size=1, max_size=4)),
    min_size=1,
    max_size=50,
)
geometries = st.sampled_from([(8, 4), (16, 4), (16, 8), (32, 8)])
reaches = st.sampled_from([CompactionReach.BLOCK, CompactionReach.GLOBAL])


def per_cell_alpu(config: AlpuConfig) -> Alpu:
    """An Alpu whose chain is built from PerCellBlock oracles."""
    original = alpu_module.CellBlock
    alpu_module.CellBlock = PerCellBlock
    try:
        return Alpu(config)
    finally:
        alpu_module.CellBlock = original


@settings(max_examples=120)
@given(trace=traces, geometry=geometries, reach=reaches)
def test_alpu_over_vectorized_blocks_equals_per_cell_alpu(trace, geometry, reach):
    """Same trace, both block models, plus the reference-list oracle.

    Responses, survivor order and *every* stats counter -- including the
    cycle counts (compaction steps, insert stall cycles, held retries) --
    must be identical: vectorization may not change what the modelled
    hardware does, only what it costs in host Python.
    """
    total_cells, block_size = geometry
    config = AlpuConfig(
        kind=CellKind.POSTED_RECEIVE,
        total_cells=total_cells,
        block_size=block_size,
        compaction_reach=reach,
    )
    vec = Alpu(config)
    obj = per_cell_alpu(config)
    reference = ReferenceMatchList()
    next_tag = iter(range(1_000_000))

    for op in trace:
        if isinstance(op, MatchOp):
            request = MatchRequest(bits=FMT.pack(op.context, op.source, op.tag))
            responses = vec.present_header(request)
            assert responses == obj.present_header(request)
            expected, _ = reference.match(request)
            if expected is None:
                assert responses == [MatchFailure()]
            else:
                assert responses == [MatchSuccess(tag=expected.tag)]
        else:
            assert vec.submit(StartInsert()) == obj.submit(StartInsert())
            for insert in op:
                if vec.free_entries == 0:
                    break
                bits, mask = FMT.pack_receive(
                    insert.context, insert.source, insert.tag
                )
                tag = next(next_tag)
                assert vec.submit(Insert(bits, mask, tag)) == obj.submit(
                    Insert(bits, mask, tag)
                )
                reference.append(MatchEntry(bits=bits, mask=mask, tag=tag))
            assert vec.submit(StopInsert()) == obj.submit(StopInsert())
        survivors = [e.tag for e in vec.entries()]
        assert survivors == [e.tag for e in obj.entries()]
        assert survivors == [e.tag for e in reference.snapshot()]

    assert dataclasses.asdict(vec.stats) == dataclasses.asdict(obj.stats)
