"""The matching-backend protocol the NIC firmware dispatches through.

A :class:`MatchBackend` owns *how* the posted-receive and unexpected
queues are searched and indexed; the firmware
(:class:`~repro.nic.firmware.NicFirmware`) owns everything else -- the
progress loop, the eager/rendezvous protocol, DMA and completions.  The
split follows the queue-management literature's treatment of the
queue-manipulation engine as a swappable unit behind a fixed interface.

All protocol methods are **simulation generators**: they are driven from
the firmware's process with ``yield from`` and charge processor cycles,
cache-modelled memory touches (via the
:class:`~repro.nic.backends.hashmatch.OpCost` path) and bus time as they
go.  A method that costs nothing simply returns without yielding.

The four core operations (plus two indexing hooks and a maintenance
hook):

``match_arrival(request)``
    An incoming header searches the posted-receive queue.  On a hit the
    backend unlinks the entry from the queue (charging dequeue costs)
    and evaluates to it; otherwise evaluates to ``None``.
``consume_unexpected(request)``
    A receive being posted searches the unexpected queue, same contract.
``post_receive(entry)``
    A receive that matched nothing was appended to the posted queue;
    index it (hash insert, ALPU mirror bookkeeping, or nothing).
``note_unexpected(entry)``
    An arrived header was parked on the unexpected queue; index it.
``remove(entry, queue)``
    Explicitly unlink an entry (cancellation and diagnostics).
``update()``
    One "update the engine" step of the firmware loop (the ALPU's batch
    inserts live here).  Evaluates to True when it made progress.

Backends are created through the registry
(:func:`~repro.nic.backends.registry.register_backend`) and wired to one
firmware via :meth:`MatchBackend.attach`.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.match import MatchRequest
from repro.nic.queues import NicQueue, QueueEntry
from repro.sim.process import delay


class MatchBackend(abc.ABC):
    """One NIC's pluggable matching engine (see module docstring)."""

    #: registry name; informational (set by subclasses)
    name: str = "?"
    #: True when :meth:`update` does real per-loop maintenance; the
    #: firmware skips the call (and the generator it would allocate)
    #: every loop iteration when this is False
    has_update: bool = False

    # ------------------------------------------------------------- wiring
    def attach(self, firmware) -> None:
        """Bind this backend to one firmware's queues and cost models."""
        self.fw = firmware
        self.nic = firmware.nic
        self.proc = firmware.proc
        self.cost = firmware.cost
        self.fmt = firmware.fmt
        self.posted_q: NicQueue = firmware.posted_recv_q
        self.unexpected_q: NicQueue = firmware.unexpected_q
        self._setup()

    def _setup(self) -> None:
        """Subclass hook run once the firmware references are in place."""

    # ----------------------------------------------------------- protocol
    @abc.abstractmethod
    def match_arrival(self, request: MatchRequest):
        """Search the posted-receive queue for an incoming header."""

    @abc.abstractmethod
    def consume_unexpected(self, request: MatchRequest):
        """Search the unexpected queue for a receive being posted."""

    def post_receive(self, entry: QueueEntry):
        """Index a receive just appended to the posted queue (no-op)."""
        return None
        yield  # pragma: no cover - makes this a generator

    def note_unexpected(self, entry: QueueEntry):
        """Index a header just parked on the unexpected queue (no-op)."""
        return None
        yield  # pragma: no cover - makes this a generator

    def remove(self, entry: QueueEntry, queue: NicQueue):
        """Explicitly unlink an entry from one of the two queues."""
        queue.remove(entry)
        return None
        yield  # pragma: no cover - makes this a generator

    def update(self):
        """Per-loop maintenance; evaluates to True on progress (no-op)."""
        return False
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------ shared helpers
    def charge_ps(self, op_cost) -> int:
        """Charge an :class:`OpCost` against the processor; returns the ps.

        Not a generator: callers ``yield delay(...)`` the result themselves
        (usually folded into one delay with neighbouring charges), so the
        per-operation generator that ``charge`` used to allocate is gone
        from the hash backend's hot path.
        """
        proc = self.proc
        touch = proc.touch
        total = proc.compute(op_cost.cycles)
        for addr, size, write in op_cost.touches:
            total += touch(addr, size, write=write)
        return total

    def charge(self, op_cost):
        """Charge an :class:`OpCost`: cycles plus cache-modelled lines."""
        total = self.charge_ps(op_cost)
        if total:
            yield delay(total)

    def retire(self, entry: QueueEntry, queue: NicQueue):
        """Unlink a matched entry, charging the dequeue + state-line cost.

        The matched entry's request state lives in its second cache line.
        """
        queue.remove(entry)
        yield delay(
            self.proc.compute(self.cost.dequeue_cycles)
            + self.proc.touch(entry.addr + 64, 64, write=True)
        )

    def software_search(
        self,
        queue: NicQueue,
        request: MatchRequest,
        *,
        suffix_only: bool = False,
    ):
        """Linear traversal with per-entry compute + cache charges.

        The engines every surveyed MPI uses (and the ALPU's MATCH FAILURE
        fallback, with ``suffix_only=True``).  Evaluates to the matched
        entry (already unlinked) or ``None``.

        *Which* entries are visited, and in what order, comes from the
        queue's discipline (:mod:`repro.nic.qdisc`): plain append order
        under the default FIFO discipline (bit-identical to the
        historical list walk), shard-narrowed under ``"sharded"``.
        """
        tracer = self.fw.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.begin("nic", f"{self.nic.name}.search.{queue.name}")
        found: Optional[QueueEntry] = None
        # each visit reads the entry's first line (envelope + next
        # pointer); the compare is the ternary rule of
        # repro.core.match.matches with both masks honoured
        req_bits = request.bits
        req_mask = request.mask
        if queue.discipline.fifo and not (req_mask or queue.masked):
            # no mask on either side: the rule is bit equality, so the
            # first equal entry in append order is the match
            start = queue.alpu_count if suffix_only else 0
            try:
                pos = queue.bits.index(req_bits, start)
            except ValueError:
                visits = queue.addrs[start:]
            else:
                visits = queue.addrs[start:pos + 1]
                found = queue.entries[pos]
        else:
            visits = []
            visit = visits.append
            for entry in queue.search_candidates(request, suffix_only=suffix_only):
                visit(entry.addr)
                if not (entry.bits ^ req_bits) & ~(entry.mask | req_mask):
                    found = entry
                    break
        # Nothing yields or touches memory between visits, so charging the
        # lines in one read_lines call (same order) is exact, and compare
        # cycles are linear in visits (cycles() is exact integer
        # ps-per-cycle), so one compute() call charges the identical total.
        visited = len(visits)
        proc = self.proc
        cost = proc.compute(visited * self.cost.entry_compare_cycles)
        if visits:  # most searches visit nothing (empty queue, all in the ALPU)
            cost += proc.read_lines(visits)
        self.fw.record_traversal(visited)
        if cost:
            yield delay(cost)
        if found is not None:
            yield from self.retire(found, queue)
        if tracing:
            tracer.end(
                "nic",
                f"{self.nic.name}.search.{queue.name}",
                {"visited": visited, "hit": found is not None},
            )
        return found
