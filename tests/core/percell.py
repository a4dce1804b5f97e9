"""The per-cell ALPU model: the test oracle for the packed :class:`Alpu`.

:class:`repro.core.alpu.Alpu` packs every cell of the array into one
SWAR big-int per field.  This module keeps the structure the paper draws
instead, as plain objects:

* :class:`Cell` -- one match cell (Fig. 2a/2b) with its compare logic;
* :func:`priority_select` -- the ``log2(size)``-level binary
  priority-mux tree of Section III-B that picks a block's oldest hit;
* :class:`PerCellBlock` -- a power-of-two group of cells with the
  per-cell ``copy_from`` shift chain;
* :class:`PerCellAlpu` -- the chain of blocks: between-block priority
  (oldest block wins), delete-on-match walking the blocks one at a time,
  and insert-mode compaction planned and applied block by block.

``PerCellAlpu`` reuses the :class:`Alpu` state machine and replaces only
its data plane, so the two run the same command traces and must agree on
every response, every cell (stale contents included), and every
:class:`~repro.core.alpu.AlpuStats` counter.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core import CellKind
from repro.core.alpu import Alpu, AlpuConfig
from repro.core.commands import Insert
from repro.core.match import MatchEntry, MatchRequest, matches

#: a cell snapshot: (bits, mask, tag, valid)
CellTuple = Tuple[int, int, int, bool]


@dataclasses.dataclass
class Cell:
    """One match cell.

    The posted-receive cell stores its mask; the unexpected-message cell
    has no mask storage and takes the mask as an input with the request.
    An invalid cell never matches (the valid bit is ANDed into the
    match output in hardware).
    """

    kind: CellKind
    bits: int = 0
    mask: int = 0
    tag: int = 0
    valid: bool = False

    def load(self, entry: MatchEntry) -> None:
        """Latch a new entry into the cell (an INSERT)."""
        self.bits = entry.bits
        # the unexpected-message cell has no mask storage (Fig. 2b)
        self.mask = entry.mask if self.kind is CellKind.POSTED_RECEIVE else 0
        self.tag = entry.tag
        self.valid = True

    def clear(self) -> None:
        """Drop the valid bit (contents are don't-care afterwards)."""
        self.valid = False

    def copy_from(self, other: "Cell") -> None:
        """Shift-register transfer: latch the neighbour's stored data."""
        self.bits = other.bits
        self.mask = other.mask
        self.tag = other.tag
        self.valid = other.valid

    def snapshot(self) -> Optional[MatchEntry]:
        """The stored entry, or None when invalid."""
        if not self.valid:
            return None
        return MatchEntry(bits=self.bits, mask=self.mask, tag=self.tag)

    def as_tuple(self) -> CellTuple:
        return (self.bits, self.mask, self.tag, self.valid)

    def set_tuple(self, incoming: Optional[CellTuple]) -> None:
        """Latch a shifted-in cell; nothing shifting in reads zeros."""
        self.bits, self.mask, self.tag, self.valid = incoming or (0, 0, 0, False)

    def match(self, request: MatchRequest) -> bool:
        """Compare logic output: match AND valid.

        The stored mask (posted-receive cells) and the request's input
        mask (unexpected cells) are ORed: a masked bit from either side is
        a don't-care.
        """
        if not self.valid:
            return False
        return matches(self.bits, self.mask | request.mask, request.bits)


def priority_select(
    match_flags: Sequence[bool], tags: Sequence[int]
) -> Tuple[bool, int, int]:
    """The binary priority-mux tree of Section III-B.

    At the first level, the higher cell of each pair selects its own tag if
    it matched, else its partner's; the pair's match bit becomes the lowest
    order bit of the match location.  Each further level ORs the pair of
    match bits and encodes one more location bit.  Returns
    ``(any_match, location, tag)`` where ``location`` is the index of the
    highest-priority (largest-index) matching element.
    """
    n = len(match_flags)
    if n == 0 or n & (n - 1):
        raise ValueError(f"priority_select needs a power-of-two width, got {n}")
    if len(tags) != n:
        raise ValueError("match_flags and tags must have equal length")
    level = [(bool(match_flags[i]), 0, tags[i]) for i in range(n)]
    bit = 0
    while len(level) > 1:
        next_level = []
        for pair_index in range(0, len(level), 2):
            low = level[pair_index]
            high = level[pair_index + 1]
            # the higher-order element wins when it matched
            if high[0]:
                next_level.append((True, high[1] | (1 << bit), high[2]))
            elif low[0]:
                next_level.append(low)
            else:
                next_level.append((False, 0, low[2]))
        level = next_level
        bit += 1
    return level[0]


class PerCellBlock:
    """``size`` cells; local 0 is the youngest, ``size - 1`` the oldest."""

    def __init__(self, kind: CellKind, size: int) -> None:
        self.size = size
        self.cells: List[Cell] = [Cell(kind) for _ in range(size)]

    @property
    def any_valid(self) -> bool:
        return any(cell.valid for cell in self.cells)

    @property
    def bottom_valid(self) -> bool:
        return self.cells[0].valid

    def lowest_hole_with_valid_below(self) -> Optional[int]:
        """Lowest empty cell with a valid cell somewhere below it."""
        seen_valid = False
        for position, cell in enumerate(self.cells):
            if cell.valid:
                seen_valid = True
            elif seen_valid:
                return position
        return None

    def match(self, request: MatchRequest) -> Tuple[bool, int, int]:
        """Per-cell compares feeding the priority-mux tree."""
        return priority_select(
            [cell.match(request) for cell in self.cells],
            [cell.tag for cell in self.cells],
        )

    def shift_up_through(
        self, local_index: int, incoming: Optional[CellTuple]
    ) -> None:
        """Cells ``[0, local_index]`` shift up one; ``incoming`` (the
        younger block's top cell, or None at the youngest end) latches
        into cell 0."""
        for position in range(local_index, 0, -1):
            self.cells[position].copy_from(self.cells[position - 1])
        self.cells[0].set_tuple(incoming)


class PerCellAlpu(Alpu):
    """An :class:`Alpu` whose cells are :class:`Cell` objects in blocks.

    Only the data plane is replaced; ``_valid`` is re-derived from the
    cells after every change so the inherited state machine (insert
    stalls, occupancy, free counts) reads the oracle's cells.
    """

    def __init__(self, config: Optional[AlpuConfig] = None) -> None:
        super().__init__(config)
        config = self.config
        self.blocks = [
            PerCellBlock(config.kind, config.block_size)
            for _ in range(config.num_blocks)
        ]

    def cells(self) -> List[CellTuple]:
        """Every cell youngest first, stale contents included."""
        return [cell.as_tuple() for block in self.blocks for cell in block.cells]

    def entries(self) -> List[MatchEntry]:
        ordered = []
        for block in reversed(self.blocks):
            for cell in reversed(block.cells):
                if cell.valid:
                    ordered.append(cell.snapshot())
        return ordered

    def _sync_valid(self) -> None:
        self._valid = sum(
            1 << position
            for position, (_, _, _, valid) in enumerate(self.cells())
            if valid
        )

    # ------------------------------------------------------------ data plane
    def _take_oldest_match(self, request: MatchRequest) -> Optional[int]:
        # between-block prioritization: the oldest block with a hit wins
        for index in range(len(self.blocks) - 1, -1, -1):
            found, location, tag = self.blocks[index].match(request)
            if found:
                self._delete_at(index, location)
                return tag
        return None

    def _delete_at(self, block_index: int, local: int) -> None:
        """Everything at and below the location shifts up one, block by
        block, each block reading its younger neighbour's top cell before
        that neighbour shifts."""
        size = self.config.block_size
        for current in range(block_index, -1, -1):
            through = local if current == block_index else size - 1
            incoming = (
                self.blocks[current - 1].cells[size - 1].as_tuple()
                if current > 0
                else None
            )
            self.blocks[current].shift_up_through(through, incoming)
        self._sync_valid()

    def _load_youngest(self, command: Insert) -> None:
        self.blocks[0].cells[0].load(
            MatchEntry(bits=command.match_bits, mask=command.mask_bits, tag=command.tag)
        )
        self._sync_valid()

    def _clear_valid(self) -> None:
        for block in self.blocks:
            for cell in block.cells:
                cell.clear()
        self._sync_valid()

    def _compact_step_global(self) -> bool:
        size = self.config.block_size
        seen_valid = False
        for position, (_, _, _, valid) in enumerate(self.cells()):
            if valid:
                seen_valid = True
            elif seen_valid:
                self._delete_at(*divmod(position, size))
                return True
        return False

    def _compact_step_block(self) -> bool:
        size = self.config.block_size
        blocks = self.blocks
        count = len(blocks)
        FULL = -1
        plans: List[Optional[int]] = []
        for index, block in enumerate(blocks):
            plan = None
            if block.any_valid:
                if index + 1 < count and not blocks[index + 1].bottom_valid:
                    plan = FULL
                else:
                    plan = block.lowest_hole_with_valid_below()
            plans.append(plan)
        if all(plan is None for plan in plans):
            return False
        # apply oldest-first so each block reads its younger neighbour's
        # cycle-start top cell before that neighbour shifts
        for index in range(count - 1, -1, -1):
            plan = plans[index]
            incoming = None
            if index > 0 and plans[index - 1] == FULL:
                incoming = blocks[index - 1].cells[size - 1].as_tuple()
            if plan is not None:
                through = size - 1 if plan == FULL else plan
                blocks[index].shift_up_through(through, incoming)
            elif incoming is not None:
                blocks[index].cells[0].set_tuple(incoming)
        self._sync_valid()
        return True


def flat_cells(alpu: Alpu) -> List[CellTuple]:
    """Decode the packed :class:`Alpu` state into per-cell tuples,
    youngest first; checks that the two valid encodings agree."""
    out = []
    s, t, w = alpu._s, alpu._t, alpu._w
    for cell in range(alpu.capacity):
        valid = bool(alpu._valid >> cell & 1)
        assert valid == bool(alpu._valid_guard >> cell * s + w & 1)
        out.append(
            (
                alpu._bits >> cell * s & alpu._lane,
                alpu._mask >> cell * s & alpu._lane,
                alpu._tags >> cell * t & alpu._tag_mask,
                valid,
            )
        )
    return out
