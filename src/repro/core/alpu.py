"""The Associative List Processing Unit (Figure 2 + Figure 3).

The ALPU is one large array of match cells plus the control logic that
talks to the rest of the NIC through three FIFOs (header in, command in,
result out).  This module is the *behavioural* model: transactions
(matches, inserts, resets) execute with exact hardware semantics --
ordering, priority, wildcards, delete-on-match compaction, insert-mode
hold-and-retry -- while the *timing* of those transactions is layered on
separately by :class:`~repro.core.pipeline.AlpuTimingModel` so the same
model serves both the property-test suite and the system simulation.

Cells (Fig. 2a/2b) store match bits, mask bits, a tag and a valid bit.
The two flavours differ only in where the mask comes from: the
posted-receive cell *stores* it (each receive carries its own
wildcards), the unexpected-message cell has no mask storage and takes
the mask as an *input* with the request (the receive being posted
carries the wildcards).

Cell ordering convention (matches Fig. 2c): list items are inserted at the
*youngest* end (cell 0) and migrate toward the *oldest* end (cell
``total_cells - 1``).  The oldest matching entry wins, because MPI
requires the first matching item in list order to be chosen.

Cell blocks (Fig. 2c) group ``block_size`` cells.  In the FPGA they bound
the priority-mux tree and the "space available" rule of insert-mode
compaction; here they survive only as that compaction rule
(:meth:`Alpu.compact_step` under :attr:`CompactionReach.BLOCK`) and as the
geometry behind the Tables IV/V timing.

State machine (Fig. 3): the ALPU starts in Match mode.  A command moves it
through Read Command, where only RESET and START INSERT are valid (other
commands are discarded, footnote 3).  In Insert mode, matching continues
between inserts, but a *failed* match is held for retry until inserts
complete -- this closes the race where a header misses the ALPU while the
matching receive is sitting in the command FIFO on its way in.

Data layout (SWAR)
------------------
The hardware compares every cell *in parallel* -- a ternary CAM, the same
wide bitline-parallel structure as a bitline-compute SRAM.  The simulator
mirrors that with packed-integer SWAR (SIMD-within-a-register) state: one
Python big-int per field, one *lane* per cell, across the whole array.

``_bits`` / ``_mask``
    One lane per cell at stride ``S = match_width + 1``.  The extra top
    bit per lane is a **guard bit** that is always 0 in stored data; it
    gives lane arithmetic a place to borrow without crossing into the
    neighbour lane.
``_tags``
    Tags packed at stride ``tag_width`` (no guard needed -- tags are only
    ever shifted and extracted, never compared).
``_valid`` / ``_valid_guard``
    The valid bits in two synchronized encodings: bit ``i`` for cell
    ``i`` (occupancy, holes, compaction planning) and bit
    ``i*S + match_width`` (the guard position, ANDed into the match).

A whole-array match is five big-int operations (the compare plane) plus
one ``bit_length`` (the priority encoder)::

    x     = (bits ^ repl(req)) & ~(mask | repl(req_mask)) & LANES
    hit   = (HIGH - x) & valid_guard      # guard set <=> lane x == 0
    cell  = (hit.bit_length() - 1 - w) // S

``repl(v) = v * COMB`` replicates a ``w``-bit value into every lane
(``COMB`` has one LSB set per lane).  ``HIGH - x`` cannot borrow across
lanes because each lane's minuend ``2^w`` exceeds any ``w``-bit ``x``
lane; the difference's guard bit survives exactly when the lane was
zero, i.e. when every un-masked bit compared equal.  The highest set
guard bit is the oldest matching cell -- the answer of the paper's
per-block priority-mux trees followed by the between-block stage.  The
tests hold this layout equal, cell for cell and cycle for cycle, to a
per-cell model built from those mux trees.

Every shift moves a set of cells up one lane in one masked big-int
operation per field: ``X & ~REGION | (X & MOVING) << stride``.  Invalid
lanes keep their stale contents (hardware clears only the valid bit), and
lane 0 reads zeros when nothing shifts into it.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from typing import Deque, List, Optional

from repro.core.commands import (
    Command,
    Insert,
    MatchFailure,
    MatchSuccess,
    Reset,
    Response,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.core.match import MatchEntry, MatchRequest


class CellKind(enum.Enum):
    """Which ALPU flavour: where a cell's mask comes from (Fig. 2a/2b)."""

    POSTED_RECEIVE = "posted_receive"
    UNEXPECTED = "unexpected"


class AlpuMode(enum.Enum):
    """States of the controlling state machine (Figure 3)."""

    MATCH = "match"
    READ_COMMAND = "read_command"
    INSERT = "insert"


class CompactionReach(enum.Enum):
    """The "space available" rule used by insert-mode compaction.

    ``BLOCK`` is the paper's FPGA-friendly rule: a cell may shift if a
    higher cell *in its own block* is empty or the lowest cell of the next
    block is empty.  ``GLOBAL`` is the relaxed rule the paper says "could
    easily be expanded" to, modelled as a single global shift register;
    the ablation benchmark compares the two.
    """

    BLOCK = "block"
    GLOBAL = "global"


# the modes as module globals: a load through the enum class is slow
# (see repro.network.packet), and submit/drain test the mode per command
_MATCH = AlpuMode.MATCH
_INSERT = AlpuMode.INSERT


@dataclasses.dataclass(frozen=True)
class AlpuConfig:
    """ALPU geometry.

    The FPGA prototype swept ``total_cells`` in {128, 256} and
    ``block_size`` in {8, 16, 32} with a 42-bit match width and 16-bit
    tags; those are the defaults here.
    """

    kind: CellKind = CellKind.POSTED_RECEIVE
    total_cells: int = 256
    block_size: int = 16
    match_width: int = 42
    tag_width: int = 16
    compaction_reach: CompactionReach = CompactionReach.BLOCK

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive: {self.block_size}")
        if self.total_cells <= 0 or self.total_cells % self.block_size:
            raise ValueError(
                f"total_cells ({self.total_cells}) must be a positive "
                f"multiple of block_size ({self.block_size})"
            )
        if self.block_size & (self.block_size - 1):
            raise ValueError(f"block_size must be a power of two: {self.block_size}")
        if self.match_width <= 0 or self.tag_width <= 0:
            raise ValueError(f"invalid widths in {self}")

    @property
    def num_blocks(self) -> int:
        """How many cell blocks the chain comprises."""
        return self.total_cells // self.block_size


@dataclasses.dataclass
class AlpuStats:
    """Lifetime counters, used by tests and the ablation benches."""

    matches_attempted: int = 0
    match_successes: int = 0
    match_failures: int = 0
    inserts: int = 0
    insert_stall_cycles: int = 0
    compaction_steps: int = 0
    resets: int = 0
    commands_discarded: int = 0
    held_retries: int = 0


class AlpuError(RuntimeError):
    """Raised on protocol violations the hardware could not absorb."""


class Alpu:
    """Behavioural model of the associative list processing unit."""

    def __init__(
        self,
        config: Optional[AlpuConfig] = None,
        *,
        metrics=None,
        name: str = "alpu",
    ) -> None:
        self.config = config = config if config is not None else AlpuConfig()
        # ----------------------------------------------- SWAR lane constants
        w = config.match_width
        self._w = w
        self._s = s = w + 1
        self._t = config.tag_width
        #: single-lane value mask / tag mask
        self._lane = (1 << w) - 1
        self._tag_mask = (1 << config.tag_width) - 1
        #: one LSB per lane: multiplying by this replicates a lane value
        self._comb = ((1 << config.total_cells * s) - 1) // ((1 << s) - 1)
        #: every data bit of every lane (w low bits per lane)
        self._lanes = self._lane * self._comb
        #: every guard bit (bit w of each lane)
        self._high = self._comb << w
        self._stores_mask = config.kind is CellKind.POSTED_RECEIVE
        self._global_reach = config.compaction_reach is CompactionReach.GLOBAL
        # --------------------------------------- block-view constants (valid)
        cells = (1 << config.total_cells) - 1
        #: lowest cell of every block / highest cell / all the others
        self._block_base = cells // ((1 << config.block_size) - 1)
        self._block_top = self._block_base << config.block_size - 1
        self._block_low = cells ^ self._block_top
        # ------------------------------------------------------ packed state
        self._bits = 0
        self._mask = 0
        self._tags = 0
        self._valid = 0
        self._valid_guard = 0
        self.mode = _MATCH
        #: header requests not yet resolved (held during insert mode)
        self._pending: Deque[MatchRequest] = deque()
        self.stats = AlpuStats()
        #: the most entries ever stored at once (raised only by inserts)
        self.peak_occupancy = 0
        if metrics is not None and metrics.enabled:
            metrics.register_tallies(
                name, self.stats, *(field.name for field in dataclasses.fields(AlpuStats))
            )
            metrics.register_collector(
                f"{name}/occupancy",
                lambda: {"value": self.occupancy, "high_water": self.peak_occupancy},
            )

    # ------------------------------------------------------------- observers
    @property
    def capacity(self) -> int:
        """Total number of cells."""
        return self.config.total_cells

    @property
    def occupancy(self) -> int:
        """Number of valid entries currently stored (a popcount)."""
        return self._valid.bit_count()

    @property
    def free_entries(self) -> int:
        """Free slots (what START ACKNOWLEDGE reports)."""
        return self.capacity - self.occupancy

    @property
    def has_held_request(self) -> bool:
        """A failed match is being held for retry (insert mode)."""
        return bool(self._pending)

    def entries(self) -> List[MatchEntry]:
        """Stored entries in priority (oldest-first) order, skipping holes."""
        ordered: List[MatchEntry] = []
        s, t, lane, tag_mask = self._s, self._t, self._lane, self._tag_mask
        valid = self._valid
        while valid:
            cell = valid.bit_length() - 1
            valid ^= 1 << cell
            ordered.append(
                MatchEntry(
                    bits=self._bits >> cell * s & lane,
                    mask=self._mask >> cell * s & lane,
                    tag=self._tags >> cell * t & tag_mask,
                )
            )
        return ordered

    # =============================================================== headers
    def present_header(self, request: MatchRequest) -> List[Response]:
        """Feed one request from the header FIFO.

        Returns the responses this header produced *now* (possibly none:
        in insert mode a failed match is held for retry and resolves
        later, via :meth:`submit`).
        """
        self._check_widths(request.bits, request.mask)
        self._pending.append(request)
        return self._drain_pending()

    def _drain_pending(self) -> List[Response]:
        """Resolve queued requests in arrival order.

        In MATCH mode every request resolves immediately.  In INSERT mode
        a failing head request blocks the pipe (held for retry); requests
        behind it wait so that result order always equals arrival order.
        """
        emitted: List[Response] = []
        while self._pending:
            head = self._pending[0]
            matched, response = self._match_and_delete(head)
            if not matched and self.mode is _INSERT:
                break  # held for retry; MATCH FAILURE may not be emitted now
            self._pending.popleft()
            emitted.append(response)
        return emitted

    def _match_and_delete(self, request: MatchRequest):
        """One full match pipeline pass: compare, prioritize, delete."""
        self.stats.matches_attempted += 1
        tag = self._take_oldest_match(request)
        if tag is None:
            self.stats.match_failures += 1
            return False, MatchFailure()
        self.stats.match_successes += 1
        return True, MatchSuccess(tag=tag)

    def _take_oldest_match(self, request: MatchRequest) -> Optional[int]:
        """Compare every cell, pick the oldest hit, delete it; its tag.

        The whole-array compare and priority encode are described in the
        module docstring.  Delete-on-match: "Cells at, and below, the
        match location are enabled while cells above it are not" -- the
        shift crosses block boundaries freely (unlike insert-mode
        compaction).
        """
        comb = self._comb
        x = (
            (self._bits ^ request.bits * comb)
            & ~(self._mask | request.mask * comb)
            & self._lanes
        )
        hit = (self._high - x) & self._valid_guard
        if not hit:
            return None
        cell = (hit.bit_length() - 1 - self._w) // self._s
        tag = self._tags >> cell * self._t & self._tag_mask
        self._shift_up_through(cell)
        return tag

    def _shift_up_through(self, cell: int) -> None:
        """Shift cells ``[0, cell]`` up one lane; cell 0 empties.

        Per field of stride ``f``: the lanes above ``cell`` stay, the
        lanes below it move up one, and whatever sat in ``cell`` is
        overwritten -- ``X >> (cell+1)*f << (cell+1)*f | (X & below) << f``.
        """
        s, t = self._s, self._t
        keep_s = (cell + 1) * s
        keep_t = (cell + 1) * t
        below_s = (1 << cell * s) - 1
        below_t = (1 << cell * t) - 1
        below_v = (1 << cell) - 1
        self._bits = self._bits >> keep_s << keep_s | (self._bits & below_s) << s
        self._mask = self._mask >> keep_s << keep_s | (self._mask & below_s) << s
        self._tags = self._tags >> keep_t << keep_t | (self._tags & below_t) << t
        self._valid_guard = (
            self._valid_guard >> keep_s << keep_s
            | (self._valid_guard & below_s) << s
        )
        self._valid = (
            self._valid >> cell + 1 << cell + 1 | (self._valid & below_v) << 1
        )

    # ============================================================== commands
    def submit(self, command: Command) -> List[Response]:
        """Feed one command from the command FIFO; returns new responses."""
        if self.mode is _INSERT:
            return self._submit_insert_mode(command)
        # MATCH mode -> Read Command transition (Fig. 3): only RESET and
        # START INSERT are valid; others are discarded (footnote 3).
        if isinstance(command, StartInsert):
            self.mode = _INSERT
            return [StartAcknowledge(free_entries=self.free_entries)]
        if isinstance(command, Reset):
            return self._reset()
        self.stats.commands_discarded += 1
        return []

    def _submit_insert_mode(self, command: Command) -> List[Response]:
        if isinstance(command, Insert):
            self._insert(command)
            # between inserts, matching continues: retry any held request
            # against the (possibly now-matching) new contents
            if self._pending:
                self.stats.held_retries += 1
            return self._drain_pending()
        if isinstance(command, StopInsert):
            self.mode = _MATCH
            # resolve the backlog; failures may be emitted again now
            return self._drain_pending()
        if isinstance(command, Reset):
            return self._reset()
        if isinstance(command, StartInsert):
            # redundant START INSERT: re-acknowledge with current free count
            return [StartAcknowledge(free_entries=self.free_entries)]
        self.stats.commands_discarded += 1
        return []

    def _reset(self) -> List[Response]:
        """RESET: clear every valid flag and return to Match mode.

        Requests in flight resolve against an empty array (all failures),
        preserving one-response-per-header.
        """
        self._clear_valid()
        self.mode = _MATCH
        self.stats.resets += 1
        return self._drain_pending()

    def _clear_valid(self) -> None:
        """Drop every valid bit; stored data is don't-care."""
        self._valid = 0
        self._valid_guard = 0

    # =============================================================== inserts
    def _insert(self, command: Insert) -> None:
        self._check_widths(command.match_bits, command.mask_bits)
        self._check_tag(command.tag)
        if self.free_entries == 0:
            raise AlpuError(
                "INSERT into a full ALPU -- software must honour the free "
                "count from START ACKNOWLEDGE"
            )
        # the insert point is the youngest cell; if occupied, compaction
        # must first migrate a hole down to it (each step is one clock)
        stall = 0
        while self._valid & 1:
            if not self.compact_step():
                raise AlpuError("compaction cannot free the insert cell")
            stall += 1
        self.stats.insert_stall_cycles += stall
        self._load_youngest(command)
        self.stats.inserts += 1
        occupancy = self.occupancy
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        # the pipeline allows inserts every other cycle because data shifts
        # up one position on the intervening clock; model that free step
        self.compact_step()

    def _load_youngest(self, command: Insert) -> None:
        """Latch an INSERT into cell 0 (the unexpected-message cell has
        no mask storage, Fig. 2b, so its mask is dropped)."""
        lane = self._lane
        mask = command.mask_bits if self._stores_mask else 0
        self._bits = self._bits & ~lane | command.match_bits
        self._mask = self._mask & ~lane | mask
        self._tags = self._tags & ~self._tag_mask | command.tag
        self._valid |= 1
        self._valid_guard |= 1 << self._w

    # ============================================================ compaction
    def compact_step(self) -> bool:
        """One clock of insert-mode hole compaction.  True if data moved.

        Under the BLOCK reach rule each block decides independently from
        cycle-start state:

        * if the next (older) block's lowest cell is empty, the whole
          block shifts up one, its top cell crossing into that block;
        * otherwise, if the block has an internal hole with valid data
          below it, the run below the lowest such hole shifts up one.

        Under GLOBAL reach the ALPU behaves as a single block.
        """
        self.stats.compaction_steps += 1
        if self._global_reach:
            return self._compact_step_global()
        return self._compact_step_block()

    @staticmethod
    def _lowest_hole_with_valid_below(valid_mask: int) -> int:
        """Lowest bit position that is 0 with any 1 strictly below it.

        Bit tricks over the valid bitmask: positions below the lowest
        valid bit are holes with nothing beneath them, so the answer is
        the lowest zero above the lowest one.  Returns a position past
        the mask's width when the valid run is hole-free (callers bound
        it); must not be called with an empty mask.
        """
        lowest_valid = (valid_mask & -valid_mask).bit_length() - 1
        above = valid_mask >> lowest_valid
        return lowest_valid + (~above & (above + 1)).bit_length() - 1

    def _compact_step_global(self) -> bool:
        if not self._valid:
            return False
        hole = self._lowest_hole_with_valid_below(self._valid)
        if hole >= self.capacity:
            return False
        self._shift_up_through(hole)
        return True

    def _compact_step_block(self) -> bool:
        """Plan every block from cycle-start valid bits, then move once.

        Each plan is a run of *moving* cells that shift up one lane: a
        FULL block moves all its cells (its top crossing into the next
        block's empty cell 0), a hole plan moves the cells below the
        block's lowest hole that has valid data beneath it.  All blocks
        are planned at once with whole-word arithmetic on ``_valid``,
        with one base, top and low bit mask per block (``B``, ``T``,
        ``L``); per block:

        * ``((V & L) + L | V) & T`` -- the top bit flags a nonempty
          block (adding ``L`` carries into the top iff a low cell is
          valid, and never past it);
        * ``fill = V | (V | empty bases) - B`` -- the cells below the
          lowest valid cell read as valid (empty blocks stay empty, and
          their forced base bit keeps the borrow inside the block);
        * with ``x = fill & L``, ``x & ~(x + B)`` is ``fill``'s run of
          trailing ones below the lowest hole: the hole plan.  A
          hole-free block (carry into the top, top valid) plans nothing,
          so its run is cancelled; a FULL block (nonempty, not the last,
          next block's cell 0 empty) moves whole.

        The changed region is the moving cells and their destinations; a
        region cell whose younger neighbour does not move reads zeros,
        exactly like cell 0 under a delete.  The lane masks are built
        one maximal moving run at a time.
        """
        valid = self._valid
        base = self._block_base
        top = self._block_top
        low = self._block_low
        size = self.config.block_size
        to_base = size - 1
        nonempty = ((valid & low) + low | valid) & top
        fill = valid | (valid | base & ~(nonempty >> to_base)) - base
        x = fill & low
        carried = x + base
        hole_free = carried & fill & top
        full = nonempty & ~(valid >> 1) & (top >> size)
        moving = (
            (x & ~carried) ^ (hole_free - (hole_free >> to_base))
            | (full << 1) - (full >> to_base)
        )
        if not moving:
            return False
        s, t = self._s, self._t
        moving_s = moving_t = 0
        # run edges alternate end, start from the top: each maximal run
        # [start, end) of moving cells is one lane-mask range per field
        edges = moving ^ moving << 1
        while edges:
            end = edges.bit_length() - 1
            edges ^= 1 << end
            start = edges.bit_length() - 1
            edges ^= 1 << start
            moving_s |= (1 << end * s) - (1 << start * s)
            moving_t |= (1 << end * t) - (1 << start * t)
        keep_s = ~(moving_s | moving_s << s)
        keep_t = ~(moving_t | moving_t << t)
        self._bits = self._bits & keep_s | (self._bits & moving_s) << s
        self._mask = self._mask & keep_s | (self._mask & moving_s) << s
        self._tags = self._tags & keep_t | (self._tags & moving_t) << t
        self._valid_guard = (
            self._valid_guard & keep_s | (self._valid_guard & moving_s) << s
        )
        self._valid = valid & ~(moving | moving << 1) | (valid & moving) << 1
        return True

    # ============================================================ validation
    def _check_widths(self, bits: int, mask: int) -> None:
        limit = 1 << self.config.match_width
        if not 0 <= bits < limit or not 0 <= mask < limit:
            raise AlpuError(
                "match/mask bits exceed configured width "
                f"{self.config.match_width}: bits={bits:#x} mask={mask:#x}"
            )

    def _check_tag(self, tag: int) -> None:
        if not 0 <= tag < (1 << self.config.tag_width):
            raise AlpuError(
                f"tag {tag:#x} exceeds configured tag width {self.config.tag_width}"
            )
