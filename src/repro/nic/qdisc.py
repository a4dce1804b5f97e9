"""Pluggable queue disciplines and admission control for the NIC queues.

The paper's firmware keeps postedRecvQ/unexpectedQ as plain FIFO lists
(Section V-C), but the network-processor queue-management literature
puts the interesting behaviour -- floods, priority inversion, buffer
exhaustion -- in the queue *discipline*, not the list.  This module
makes that policy layer pluggable behind :class:`~repro.nic.queues.NicQueue`:

``"fifo"`` (default)
    Plain append-order traversal; bit-identical to the historical
    behaviour (pinned against the benchmark baseline).

``"sharded"``
    Entries are binned by a shard key derived from the match word
    (``shard_key="source"``: {context, source}; ``"flow"``: the full
    {context, source, tag} word).  A search with a concrete key visits
    only its own shard merged with the wildcard shard, oldest-first by
    the queue's global append sequence -- so the *first* hit in merged
    order is exactly the entry plain FIFO traversal would have matched
    (MPI per-pair ordering and wildcard semantics preserved), while the
    visit count collapses from queue depth to shard depth.  A request
    that wildcards part of the shard key (e.g. ``MPI_ANY_SOURCE`` under
    ``"source"``) falls back to the full append-order walk.

Disciplines shape the *software* search path
(:meth:`repro.nic.backends.base.MatchBackend.software_search`: the list
backend and the ALPU's software-suffix fallback); the hash backend keeps
its own table-driven index and is unaffected.

:class:`AdmissionControl` adds buffer-occupancy admission for unexpected
floods: when the unexpected queue sits at or above ``max_unexpected``,
arriving match packets (EAGER / RNDV_RTS) are refused *before* the
reliability layer acknowledges them -- either silently dropped (the
sender's retransmit timer recovers) or answered with a ``NACK_BUSY``
that schedules a backed-off retransmit without burning retry budget.
Refusals feed the ``<nic>.adm/*`` metrics, an ``admission_refused``
lifecycle mark, and the ``unexpected_admission_pressure`` health
watchdog.

All knobs live on :class:`QdiscConfig`, selected via
``NicConfig(qdisc=...)`` (or ``SweepSpec(qdisc=...)`` for a whole grid).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator

from repro.core.match import MatchFormat, MatchRequest
from repro.nic.backends.registry import Registry
from repro.nic.queues import QueueEntry

#: shard-key choices -> which match-word fields form the key
SHARD_KEYS = ("source", "flow")
#: what to do with a refused unexpected packet
ADMISSION_POLICIES = ("drop", "nack")


@dataclasses.dataclass(frozen=True)
class QdiscConfig:
    """Queue-discipline and admission knobs (per NIC)."""

    #: discipline registry name: "fifo" (default, bit-identical to the
    #: historical traversal) or "sharded"
    discipline: str = "fifo"
    #: sharded only: "source" bins on {context, source} (per-peer
    #: queues), "flow" on the full match word (per-(peer, tag) flows)
    shard_key: str = "source"
    #: unexpected-queue occupancy at which arriving match packets are
    #: refused (0 disables admission control); requires the reliability
    #: layer, which carries the refusal/retransmit protocol
    max_unexpected: int = 0
    #: refusal policy: "drop" (no ACK; the sender's retransmit timer
    #: recovers, spending retry budget) or "nack" (a NACK_BUSY schedules
    #: a backed-off retransmit without consuming retries)
    admission_policy: str = "drop"
    #: service host commands (which drain the queues) before network
    #: arrivals (which fill them) in the firmware loop -- priority for
    #: expected traffic over unexpected floods
    host_priority: bool = False

    def __post_init__(self) -> None:
        if self.discipline not in DISCIPLINES:
            known = ", ".join(sorted(DISCIPLINES.names()))
            raise ValueError(
                f"unknown discipline {self.discipline!r}; registered: {known}"
            )
        if self.shard_key not in SHARD_KEYS:
            raise ValueError(
                f"shard_key must be one of {SHARD_KEYS}, got {self.shard_key!r}"
            )
        if self.max_unexpected < 0:
            raise ValueError(
                f"max_unexpected must be >= 0, got {self.max_unexpected}"
            )
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission_policy!r}"
            )


def shard_mask(config: QdiscConfig, fmt: MatchFormat) -> int:
    """The match-word bits forming the shard key."""
    if config.shard_key == "flow":
        return fmt.full_mask
    # "source": everything but the tag field, i.e. {context, source}
    return fmt.full_mask & ~fmt.tag_field_mask


class QueueDiscipline:
    """Search-order / sharding policy for one :class:`NicQueue`.

    Hooks are plain calls from the queue's ``append``/``remove`` and
    never charge simulated time: the discipline decides *which* entries
    a search visits; the per-visit cost model stays in the backend.
    """

    #: registry name (informational)
    name = "?"
    #: True when the candidates are always the queue in append order, so
    #: a search may scan the queue's flat lists directly
    fifo = False

    def attach(self, queue) -> None:
        """Bind to the queue this instance indexes (one queue each)."""
        self.queue = queue

    def on_append(self, entry: QueueEntry) -> None:
        """An entry was linked at the tail."""

    def on_remove(self, entry: QueueEntry) -> None:
        """An entry was unlinked (match, cancel, or degrade)."""

    def candidates(
        self, request: MatchRequest, *, suffix_only: bool = False
    ) -> Iterable[QueueEntry]:
        """Entries a software search for ``request`` must visit, oldest
        first; ``suffix_only`` excludes the ALPU-mirrored prefix."""
        raise NotImplementedError


class FifoDiscipline(QueueDiscipline):
    """Plain append-order traversal (the historical behaviour)."""

    name = "fifo"
    fifo = True

    def candidates(
        self, request: MatchRequest, *, suffix_only: bool = False
    ) -> Iterable[QueueEntry]:
        return self.queue.iter_fifo(suffix_only=suffix_only)


class ShardedDiscipline(QueueDiscipline):
    """Per-key shards merged oldest-first (see module docstring).

    Entries whose own mask wildcards any shard-key bit (wildcard posted
    receives) live in a dedicated wildcard shard that every concrete
    search merges in, so a concrete header still matches the globally
    oldest compatible entry -- identical match *outcome* to FIFO, fewer
    visits.
    """

    name = "sharded"

    def __init__(self, shard_mask: int) -> None:
        self.shard_mask = shard_mask
        #: concrete shard key -> insertion-ordered uid -> entry
        self._shards: Dict[int, Dict[int, QueueEntry]] = {}
        #: entries wildcarding part of the shard key, in append order
        self._wild: Dict[int, QueueEntry] = {}

    def on_append(self, entry: QueueEntry) -> None:
        if entry.mask & self.shard_mask:
            self._wild[entry.uid] = entry
        else:
            key = entry.bits & self.shard_mask
            shard = self._shards.get(key)
            if shard is None:
                shard = self._shards[key] = {}
            shard[entry.uid] = entry

    def on_remove(self, entry: QueueEntry) -> None:
        if entry.mask & self.shard_mask:
            del self._wild[entry.uid]
        else:
            key = entry.bits & self.shard_mask
            shard = self._shards[key]
            del shard[entry.uid]
            if not shard:
                del self._shards[key]

    def candidates(
        self, request: MatchRequest, *, suffix_only: bool = False
    ) -> Iterable[QueueEntry]:
        if request.mask & self.shard_mask:
            # the request wildcards part of the key (MPI_ANY_SOURCE /
            # MPI_ANY_TAG): any shard could hold the oldest match, so
            # only the global walk is correct
            return self.queue.iter_fifo(suffix_only=suffix_only)
        shard = self._shards.get(request.bits & self.shard_mask)
        return self._merged(shard, suffix_only)

    def _merged(self, shard, suffix_only: bool) -> Iterator[QueueEntry]:
        """Merge one shard with the wildcard shard by append sequence.

        Both maps iterate in insertion order, which is ascending
        ``seq``, so a two-way merge yields global age order.  The
        mirrored prefix is likewise every entry older than the first
        unmirrored one, which ``suffix_only`` skips by ``seq``.
        """
        floor = 0
        if suffix_only:
            first = self.queue.peek_software_suffix(1)
            floor = first[0].seq if first else float("inf")
        it_a = iter(shard.values()) if shard else iter(())
        it_b = iter(self._wild.values())
        ea = next(it_a, None)
        eb = next(it_b, None)
        while ea is not None or eb is not None:
            if eb is None or (ea is not None and ea.seq < eb.seq):
                out, ea = ea, next(it_a, None)
            else:
                out, eb = eb, next(it_b, None)
            if out.seq >= floor:
                yield out


#: the discipline registry (``QdiscConfig.discipline`` values)
DISCIPLINES: Registry = Registry("queue discipline")
DISCIPLINES.register("fifo", lambda config, mask: FifoDiscipline())
DISCIPLINES.register("sharded", lambda config, mask: ShardedDiscipline(mask))


def create_discipline(config: QdiscConfig, fmt: MatchFormat) -> QueueDiscipline:
    """Build one fresh discipline instance (one per queue)."""
    factory = DISCIPLINES.get(config.discipline)
    return factory(config, shard_mask(config, fmt))


class AdmissionControl:
    """Buffer-occupancy gate on arriving match packets (one per NIC).

    Consulted by the reliability layer's receive path *before* the ACK:
    a refused packet is never acknowledged (and never parked in the
    reorder buffer), so the sender's retransmission machinery -- timer
    under ``"drop"``, NACK_BUSY-scheduled under ``"nack"`` -- retries it
    once the queue has drained.  CTS/DATA/control packets are always
    admitted: they *drain* buffers, and refusing them could deadlock the
    rendezvous protocol.
    """

    def __init__(self, nic, config: QdiscConfig) -> None:
        self.nic = nic
        self.config = config
        self.policy = config.admission_policy
        self.threshold = config.max_unexpected
        self.queue = nic.unexpected_q
        #: total refusals (the probe's ``<nic>.adm/refused`` series)
        self.refused = 0
        #: the refusals answered with a NACK_BUSY (the rest were dropped)
        self.nacked = 0
        registry = nic.engine.metrics
        if registry.enabled:
            prefix = f"{nic.name}.adm"
            registry.register_tallies(prefix, self, "refused", "nacked")
            registry.register_collector(
                f"{prefix}/dropped", lambda: self.refused - self.nacked
            )

    def admits(self, packet) -> bool:
        """May this wire arrival proceed into the NIC?

        Occupancy counts every place an admitted-but-unmatched packet
        can sit, not just the unexpected queue itself: the reliability
        layer's reorder buffer (once one packet of a flow is refused,
        its successors arrive "early" and would otherwise be ACKed into
        it) and the NIC's accepted-rx FIFO (ACKed arrivals the firmware
        has not yet classified).  Both are unbounded hiding places for
        the very flood the threshold is supposed to bound.
        """
        if not packet.kind.carries_match:
            return True
        occupancy = len(self.queue) + len(self.nic.rx_fifo)
        reliability = self.nic.reliability
        if reliability is None:
            return occupancy < self.threshold
        if reliability.is_rx_head(packet):
            # the in-order head is exempt from the reorder-held share:
            # its successors are *already* ACKed and parked, so refusing
            # it sheds no memory -- and because held packets only drain
            # when their head is delivered, counting them against the
            # head livelocks the flow at `held == threshold` (refusals
            # forever, queue empty).  Admitting it merely converts held
            # packets into queue entries; held < threshold by induction,
            # so total footprint stays < 2 * threshold.
            return occupancy < self.threshold
        return occupancy + reliability.reorder_held < self.threshold

    def note_refused(self, packet, *, nacked: bool) -> None:
        """Account one refusal (metrics + lifecycle + trace)."""
        self.refused += 1
        if nacked:
            self.nacked += 1
        engine = self.nic.engine
        if engine.lifecycle.enabled:
            engine.lifecycle.mark_uid(
                packet.send_id,
                "admission_refused",
                detail={
                    "depth": len(self.queue),
                    "policy": self.policy,
                    "rel_seq": packet.rel_seq,
                },
            )
        if engine.tracer.enabled:
            engine.tracer.instant(
                "nic",
                f"{self.nic.name}.admission_refused",
                {"depth": len(self.queue), "policy": self.policy},
            )
