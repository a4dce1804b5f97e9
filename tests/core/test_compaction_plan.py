"""BLOCK-reach compaction: the whole-word plan against the per-cell blocks.

``Alpu._compact_step_block`` works out which blocks move with whole-word
arithmetic on ``_valid`` and builds its lane masks one moving run at a
time.  ``tests/core/percell.py`` plans block by block over ``Cell``
objects.  From the same cell array -- every cell carrying distinct stale
contents, valid or not -- one clock of each must leave the same cells
in every field (stale contents included), the same valid words and the
same return value.
"""

import random

import pytest

from repro.core import CellKind
from repro.core.alpu import Alpu, AlpuConfig

from tests.core.percell import PerCellAlpu, flat_cells


def stale_contents(config):
    """Distinct (bits, mask, tag) for every cell, youngest first."""
    lane = (1 << config.match_width) - 1
    tag_mask = (1 << config.tag_width) - 1
    stores_mask = config.kind is CellKind.POSTED_RECEIVE
    return [
        (
            (cell * 0x9E3779B1 + 1) & lane,
            (cell * 0x85EBCA77 + 3) & lane if stores_mask else 0,
            (cell * 7 + 5) & tag_mask,
        )
        for cell in range(config.total_cells)
    ]


class Twins:
    """A packed ALPU and a per-cell one, loadable with the same array."""

    def __init__(self, config):
        self.alpu = alpu = Alpu(config)
        self.oracle = PerCellAlpu(config)
        self.cells = [cell for block in self.oracle.blocks for cell in block.cells]
        self.contents = stale_contents(config)
        s, t = alpu._s, alpu._t
        self.fields = [
            sum(content[0] << index * s for index, content in enumerate(self.contents)),
            sum(content[1] << index * s for index, content in enumerate(self.contents)),
            sum(content[2] << index * t for index, content in enumerate(self.contents)),
        ]
        self.guard_bits = [1 << index * s + alpu._w for index in range(len(self.cells))]

    def assert_same_clock(self, valid):
        """Load ``valid`` over the stale contents, run one BLOCK clock on
        both, and compare return values and every packed field."""
        alpu, oracle = self.alpu, self.oracle
        alpu._bits, alpu._mask, alpu._tags = self.fields
        alpu._valid = oracle._valid = valid
        alpu._valid_guard = 0
        for index, (cell, content) in enumerate(zip(self.cells, self.contents)):
            on = bool(valid >> index & 1)
            cell.set_tuple((*content, on))
            if on:
                alpu._valid_guard |= self.guard_bits[index]
        moved = alpu._compact_step_block()
        assert moved == oracle._compact_step_block(), bin(valid)
        # every lane decodes to the oracle's cell (flat_cells also checks
        # the two valid encodings agree), and no bit lies outside a lane
        assert flat_cells(alpu) == oracle.cells(), bin(valid)
        total = alpu.capacity
        assert not alpu._bits & ~alpu._lanes and not alpu._mask & ~alpu._lanes
        assert not alpu._tags >> total * alpu._t and not alpu._valid >> total
        assert not alpu._valid_guard & ~alpu._high


def test_every_valid_word_of_four_blocks_of_four():
    twins = Twins(
        AlpuConfig(total_cells=16, block_size=4, match_width=12, tag_width=8)
    )
    for valid in range(1 << 16):
        twins.assert_same_clock(valid)


@pytest.mark.parametrize("block_size", [1, 2, 8])
def test_extreme_block_sizes_on_every_word(block_size):
    """One-cell blocks (only whole-block moves), two-cell blocks and a
    single block (only hole plans), over every valid word of 8 cells."""
    twins = Twins(
        AlpuConfig(
            total_cells=8, block_size=block_size, match_width=12, tag_width=8
        )
    )
    for valid in range(1 << 8):
        twins.assert_same_clock(valid)


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("block_size", [8, 16, 32])
def test_random_words_of_256_cells(kind, block_size):
    twins = Twins(AlpuConfig(kind=kind, total_cells=256, block_size=block_size))
    rng = random.Random(block_size)
    words = [0, (1 << 256) - 1]
    for _ in range(100):
        # sparse, dense and half-full arrays: hole plans and FULL moves
        a, b = rng.getrandbits(256), rng.getrandbits(256)
        words += [a & b, a | b, a]
    # whole blocks empty or full next to ragged ones
    for _ in range(40):
        word = 0
        for block in range(256 // block_size):
            pick = rng.randrange(3)
            run = (1 << block_size) - 1 if pick == 1 else rng.getrandbits(block_size)
            word |= (0 if pick == 0 else run) << block * block_size
        words.append(word)
    for valid in words:
        twins.assert_same_clock(valid)
