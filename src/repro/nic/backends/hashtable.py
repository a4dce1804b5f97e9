"""The Section II hash-table matching engine (software-only).

Wraps two :class:`~repro.nic.backends.hashmatch.HashMatchTable`
structures (one per queue side) behind the :class:`MatchBackend`
protocol, charging every probe, compare, insert and removal through the
firmware's cost model.
"""

from __future__ import annotations

from repro.core.match import MatchRequest
from repro.nic.backends.base import MatchBackend
from repro.nic.backends.hashmatch import HashMatchTable
from repro.nic.queues import NicQueue, QueueEntry
from repro.sim.process import delay


class HashTableBackend(MatchBackend):
    """Wildcard-class hash tables over both queues (the ``"hash"`` engine)."""

    name = "hash"

    def _setup(self) -> None:
        self.posted_table = HashMatchTable(self.fmt, bucket_base_addr=0x80_0000)
        self.unexpected_table = HashMatchTable(
            self.fmt, bucket_base_addr=0x90_0000
        )

    def _table_for(self, queue: NicQueue) -> HashMatchTable:
        return (
            self.posted_table if queue is self.posted_q else self.unexpected_table
        )

    # ----------------------------------------------------------- indexing
    def post_receive(self, entry: QueueEntry):
        total = self.charge_ps(self.posted_table.insert(entry))
        if total:
            yield delay(total)

    def note_unexpected(self, entry: QueueEntry):
        total = self.charge_ps(self.unexpected_table.insert(entry))
        if total:
            yield delay(total)

    def remove(self, entry: QueueEntry, queue: NicQueue):
        total = self.charge_ps(self._table_for(queue).remove(entry))
        if total:
            yield delay(total)
        queue.remove(entry)

    # ----------------------------------------------------------- matching
    def match_arrival(self, request: MatchRequest):
        entry = yield from self._search(
            self.posted_table, self.posted_q, request, incoming=True
        )
        return entry

    def consume_unexpected(self, request: MatchRequest):
        entry = yield from self._search(
            self.unexpected_table, self.unexpected_q, request, incoming=False
        )
        return entry

    def _search(
        self,
        table: HashMatchTable,
        queue: NicQueue,
        request: MatchRequest,
        *,
        incoming: bool,
    ):
        """Search one table, charging its costs; removal is table-internal."""
        probes_before = table.probes
        if incoming:
            entry, op_cost = table.match_incoming(request)
        else:
            entry, op_cost = table.match_posted_receive(request)
        # lines examined is the traversal metric comparable to the list's
        lines_examined = len(op_cost.touches)
        self.fw.record_traversal(lines_examined)
        rec = self.fw.recorder
        if rec.enabled:
            rec.search_note(hash_probes=table.probes - probes_before)
        total = self.charge_ps(op_cost)
        if total:
            yield delay(total)
        if entry is not None:
            yield from self.retire(entry, queue)
        return entry
