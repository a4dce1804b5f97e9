"""The Section IV software heuristics: driving an ALPU from firmware.

One :class:`AlpuQueueDriver` pairs one ALPU device with one firmware
queue and implements the paper's management rules:

* the processor keeps the authoritative copy of the list; the ALPU's tag
  is a handle back into it (Section IV-B);
* a pointer (``NicQueue.alpu_count``) separates the ALPU-mirrored prefix
  from the software-only suffix;
* inserts are *conglomerated*: one START INSERT / INSERT* / STOP INSERT
  batch moves as much of the suffix as fits (Section IV-C);
* while waiting for the START ACKNOWLEDGE, match responses that drain
  from the result FIFO are buffered and handed to later result reads in
  order (Section IV-C/D);
* the driver only engages the ALPU once the queue reaches a configurable
  threshold ("the software must only use it when the queue is adequately
  long" -- the paper finds break-even near 5 entries; the default here is
  1, i.e. always engage, which is what the paper's own simulations do).

All public methods are generators meant to be driven from the firmware's
simulation process (``yield from driver.update()``); they charge processor
and bus time as they go.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.core.commands import (
    Insert,
    MatchFailure,
    MatchSuccess,
    Response,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.nic.alpu_config import AlpuStallError, DriverConfig
from repro.nic.alpu_device import AlpuDevice
from repro.nic.queues import NicQueue, QueueEntry
from repro.proc.costmodel import NicCostModel
from repro.proc.processor import Processor
from repro.sim.process import delay, wait_on


class AlpuQueueDriver:
    """Firmware-side management of one ALPU + its queue."""

    def __init__(
        self,
        device: AlpuDevice,
        queue: NicQueue,
        proc: Processor,
        cost: NicCostModel,
        config: Optional[DriverConfig] = None,
    ) -> None:
        self.device = device
        self.queue = queue
        self.proc = proc
        self.cost = cost
        self.config = config = config if config is not None else DriverConfig()
        #: match responses drained while waiting for a START ACKNOWLEDGE
        self._buffered: Deque[Response] = deque()
        #: 16-bit hardware tags in flight -> queue entries
        self._tag_table: Dict[int, QueueEntry] = {}
        # Tag allocation is lazy: fresh tags come from a counter (0, 1, 2,
        # ...) and recycled tags from a LIFO free list, which issues the
        # exact sequence an eagerly built ``list(range(max_tag, -1, -1))``
        # pool would without materialising 2**tag_width integers up front.
        self._recycled_tags: list = []
        self._next_fresh_tag = 0
        self._num_tags = 1 << device.alpu.config.tag_width
        #: software's tracked ALPU occupancy (Section IV-C "optimal
        #: implementation will also track this number")
        self.tracked_occupancy = 0
        self.batches = 0
        self.entries_inserted = 0
        self.aborted_batches = 0
        #: total result-read timeout expiries (healthy devices: 0)
        self.result_timeouts = 0
        registry = device.engine.metrics
        if registry.enabled:
            registry.register_tallies(device.name, self, "result_timeouts")
        # with a threshold above 1, the driver starts disengaged: header
        # replication stays off so short queues pay zero ALPU overhead
        # (Section IV-C's delivery disable)
        if config.use_threshold > 1:
            device.hw_delivery_enabled = False

    @property
    def engaged(self) -> bool:
        """Is the hardware currently replicating headers to this ALPU?"""
        return self.device.hw_delivery_enabled

    @property
    def free_tag_count(self) -> int:
        """How many hardware tags are still available to hand out."""
        return len(self._recycled_tags) + self._num_tags - self._next_fresh_tag

    # ------------------------------------------------------------- results
    def read_result(self):
        """Blocking read of the next match response (oldest first).

        Consumes the driver's buffer before touching the bus.  Yields
        simulation commands; evaluates to a :class:`Response`.
        """
        if self._buffered:
            yield delay(self.proc.compute(self.cost.alpu_result_handle_cycles))
            return self._buffered.popleft()
        response = yield from self._read_result_raw()
        return response

    def _read_result_raw(self):
        """Blocking read straight from the device, bypassing the buffer.

        Used by the insert batch's acknowledge drain, which *fills* the
        buffer and must not consume it.

        A healthy device answers well inside one poll timeout.  Each
        expiry is counted (telemetry + trace instant); after
        ``stall_budget`` *consecutive* expiries the device is declared
        stuck and :class:`AlpuStallError` is raised rather than silently
        re-arming the wait forever.
        """
        expiries = 0
        while True:
            cost, response = self.device.bus_read_result()
            yield delay(cost)
            if response is not None:
                return response
            arrived = yield wait_on(
                self.device.result_fifo.not_empty,
                timeout_ps=self.config.result_timeout_ps,
            )
            if arrived:
                expiries = 0
                continue
            expiries += 1
            self.result_timeouts += 1
            recorder = self.device.engine.recorder
            if recorder.enabled:
                recorder.record(
                    self.device.name,
                    "result_timeout",
                    detail={"consecutive": expiries},
                )
            if expiries >= self.config.stall_budget:
                raise AlpuStallError(
                    f"{self.device.name}: result FIFO empty through "
                    f"{expiries} consecutive {self.config.result_timeout_ps} ps "
                    "poll timeouts -- device stalled"
                )

    def take_matched_entry(self, response: MatchSuccess) -> QueueEntry:
        """Resolve a MATCH SUCCESS tag to the queue entry and retire it."""
        entry = self._tag_table.pop(response.tag)
        self._recycled_tags.append(response.tag)
        self.tracked_occupancy -= 1
        return entry

    # -------------------------------------------------------------- update
    def needs_update(self) -> bool:
        """Would :meth:`update` do anything?

        False exactly when ``update()`` would evaluate to 0 without
        yielding: disengaged below the threshold, or engaged (and not
        draining back) with nothing it may insert.  The firmware loop
        tests this before building the ``update()`` generator, the way it
        skips empty input sources.
        """
        if not self.device.hw_delivery_enabled:
            return len(self.queue.entries) >= self.config.use_threshold
        return self._drains_back() or self._can_insert()

    def _drains_back(self) -> bool:
        """Engaged, drained back below the threshold, nothing mirrored."""
        threshold = self.config.use_threshold
        return (
            threshold > 1
            and self.tracked_occupancy == 0
            and len(self.queue.entries) < threshold
        )

    def _can_insert(self) -> bool:
        """A software suffix exists and the ALPU, the tags and any parked
        MATCH FAILURE allow an insert batch now."""
        queue = self.queue
        return (
            len(queue.entries) > queue.alpu_count
            and self.tracked_occupancy < self.device.alpu.capacity
            and self.free_tag_count > 0
            # an earlier drain parked MATCH FAILURE responses that the
            # firmware has not handled yet; their software-suffix searches
            # must run against the suffix as it stood, so no entry may
            # move into the ALPU until they are consumed (Section IV-C/D)
            and not any(isinstance(r, MatchFailure) for r in self._buffered)
        )

    def update(self):
        """One "update the ALPU" step of the firmware loop.

        Batch-inserts the software suffix (as much as fits).  Evaluates to
        the number of entries moved.
        """
        if not self.engaged:
            if len(self.queue) < self.config.use_threshold:
                return 0
            # the queue got adequately long: turn header replication on
            # and start mirroring (a control-register write)
            yield delay(self.device.bus_write_delivery_enable(True))
        elif self._drains_back():
            # drained back below the threshold with nothing mirrored:
            # disengage so short-queue traffic pays no ALPU overhead
            yield delay(self.device.bus_write_delivery_enable(False))
            return 0
        if not self._can_insert():
            return 0
        suffix_len = len(self.queue) - self.queue.alpu_count

        # START INSERT, then drain the result FIFO until the acknowledge
        # arrives, buffering any match responses that precede it
        yield delay(self.device.bus_write_command(StartInsert()))
        saw_failure = False
        while True:
            response = yield from self._read_result_raw()
            if isinstance(response, StartAcknowledge):
                free = response.free_entries
                break
            if isinstance(response, MatchFailure):
                saw_failure = True
            self._buffered.append(response)

        if saw_failure:
            # A match failed in the window before the ALPU entered insert
            # mode.  Its header must be searched against the suffix *as it
            # stands*; inserting first would hide the entry from that
            # search (the race of Section IV-C).  Abort the batch; the
            # failure is handled by the firmware, and the next loop
            # iteration retries the insert.
            yield delay(self.device.bus_write_command(StopInsert()))
            self.aborted_batches += 1
            return 0

        batch = min(suffix_len, free, self.free_tag_count)
        if self.config.max_batch is not None:
            batch = min(batch, self.config.max_batch)
        # inserts are posted writes; the command FIFO decouples us from
        # the ALPU's every-other-cycle insert rate
        insert_cost = 0
        batch_entries = self.queue.peek_software_suffix(batch)
        for entry in batch_entries:
            if self._recycled_tags:
                tag = self._recycled_tags.pop()
            else:
                tag = self._next_fresh_tag
                self._next_fresh_tag += 1
            self._tag_table[tag] = entry
            insert_cost += self.device.bus_write_command(
                Insert(match_bits=entry.bits, mask_bits=entry.mask, tag=tag)
            )
        if insert_cost:
            yield delay(insert_cost)
        yield delay(self.device.bus_write_command(StopInsert()))
        self.queue.mark_alpu_mirrored(batch_entries)
        self.tracked_occupancy += batch
        self.batches += 1
        self.entries_inserted += batch
        return batch

    # ----------------------------------------------------------- accounting
    def forget_software_removal(self, entry: QueueEntry) -> None:
        """A suffix entry was matched in software; nothing to do in the
        ALPU, but keep the hook for symmetry/diagnostics."""
        # entry was never inserted: no tag to free
        assert all(candidate is not entry for candidate in self._tag_table.values()), (
            f"{self.queue.name}: software removal of an ALPU-resident entry"
        )
