"""The NIC firmware progress loop (Section V-C).

"The NIC continually executes a loop that performs four actions: checking
the network for new incoming messages; checking for any new requests from
the main processor; advancing active requests; and updating the ALPU."

The loop is engine-agnostic: *how* the posted-receive and unexpected
queues are searched lives in a pluggable
:class:`~repro.nic.backends.MatchBackend` resolved by name from the
backend registry.  ``FirmwareConfig.matching`` selects it -- ``"list"``
(linear traversal, the Red Storm-like NIC of the paper's Figure 5(a,b)
and Figure 6 baseline), ``"hash"`` (the Section II alternative),
``"alpu"`` (the paper's accelerator), or any name registered via
:func:`repro.nic.backends.register_backend`.

Message protocol: eager for payloads up to ``eager_threshold`` (payload
travels with the header; unexpected payloads park in NIC memory), and a
rendezvous RTS/CTS/DATA handshake above it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.core.match import MatchFormat, MatchRequest
from repro.network.packet import EAGER, RNDV_CTS, RNDV_DATA, RNDV_RTS, Packet
from repro.nic.alpu_config import AlpuStallError
from repro.nic.backends import backend_spec, create_backend
from repro.nic.host_interface import Completion, PostRecv, PostSend
from repro.nic.queues import (
    ENTRY_BYTES, POSTED_RECV, SEND, UNEXPECTED_EAGER, UNEXPECTED_RNDV, NicQueue, QueueEntry
)
from repro.proc.costmodel import NicCostModel
from repro.sim.process import delay, wait_on
from repro.sim.units import us


@dataclasses.dataclass(frozen=True)
class FirmwareConfig:
    """Firmware behaviour knobs."""

    #: matching engine, by backend-registry name: "list" (linear
    #: traversal, what every surveyed MPI uses), "hash" (the Section II
    #: alternative), "alpu", or any custom registered backend
    matching: str = "list"
    #: eager/rendezvous protocol switch (bytes)
    eager_threshold: int = 4096
    #: match-bit packing of the {context, source, tag} triple
    match_format: MatchFormat = dataclasses.field(default_factory=MatchFormat)

    def __post_init__(self) -> None:
        backend_spec(self.matching)  # raises ValueError when unknown

    @property
    def backend(self):
        """The resolved :class:`BackendSpec` (hardware needs included)."""
        return backend_spec(self.matching)


class NicFirmware:
    """The progress engine; runs as one simulation process per NIC."""

    def __init__(self, nic) -> None:
        # `nic` is a repro.nic.nic.Nic; typed loosely to avoid the cycle
        self.nic = nic
        self.cfg: FirmwareConfig = nic.config.firmware
        self.cost: NicCostModel = nic.cost
        self.proc = nic.proc
        self.fmt = self.cfg.match_format
        # the five primary data structures (Section V-C)
        self.posted_recv_q: NicQueue = nic.posted_recv_q
        self.unexpected_q: NicQueue = nic.unexpected_q
        self.send_q: NicQueue = nic.send_q
        #: active receives awaiting rendezvous data, keyed by entry uid
        self.active_recv_q: Dict[int, QueueEntry] = {}
        #: sends awaiting CTS, keyed by send uid
        self.pending_rndv_sends: Dict[int, Tuple[QueueEntry, int]] = {}
        # statistics the benchmarks report
        self.headers_matched = 0
        self.headers_unexpected = 0
        self.entries_traversed = 0
        self.loop_iterations = 0
        #: host completions delivered (send + receive); the timeline's
        #: progress series -- flat while the engine stays busy means a
        #: livelocked protocol
        self.completions_sent = 0
        # telemetry: collectors over the tallies above (registered only
        # when metrics are on), a per-search traversal-length histogram,
        # and the record stream for message stages and search spans
        registry = nic.engine.metrics
        #: the instrumentation stream (no-op unless enabled); records
        #: are plain calls and never charge simulated time
        self.recorder = nic.engine.recorder
        prefix = f"{nic.name}.fw"
        self._h_traversal = registry.histogram(f"{prefix}/traversal_length")
        #: the pluggable matching engine this firmware dispatches to
        self.backend = create_backend(self.cfg.matching)
        self.backend.attach(self)
        #: True once a stalled ALPU forced the fall-back to software
        self.degraded = False
        if registry.enabled:
            registry.register_tallies(
                prefix,
                self,
                "headers_matched",
                "headers_unexpected",
                "entries_traversed",
                "loop_iterations",
            )
            registry.register_collector(
                f"{prefix}/backend_degraded", lambda: int(self.degraded)
            )
            registry.register_collector(
                f"{prefix}/completions", lambda: self.completions_sent
            )

    def record_traversal(self, visited: int) -> None:
        """Backends report per-search traversal work through this hook."""
        self.entries_traversed += visited
        self._h_traversal.record(visited)

    # -------------------------------------------------- graceful degradation
    def _degrade(self, err: AlpuStallError, uid: int = 0) -> None:
        """A stalled ALPU took down the hardware backend: fall back to
        the software list engine, mid-run.

        Switching is instantaneous in simulated time (the recovery path
        is a handful of register writes and pointer updates next to the
        100 us-scale stall that triggered it).  The processor's
        authoritative queue copies make this safe: the ALPU only ever
        held redundant mirrors, so resetting each queue's mirrored-prefix
        pointer to zero re-exposes every entry to the software search.
        """
        if self.degraded:  # the fall-back engine cannot stall again
            raise err
        self.degraded = True
        nic = self.nic
        # stop hardware header replication (and the aligned flag records)
        nic.alpu_offline = True
        for device in nic.alpu_devices:
            device.hw_delivery_enabled = False
        nic.posted_pushed_flags.clear()
        nic.unexpected_pushed_flags.clear()
        # every entry is software-searchable again
        self.posted_recv_q.alpu_count = 0
        self.unexpected_q.alpu_count = 0
        self.backend = create_backend("list")
        self.backend.attach(self)
        if self.recorder.enabled:
            self.recorder.record(
                nic.name, "backend_degraded", uid or None, {"error": str(err)}
            )

    # ------------------------------------------------------------ main loop
    def run(self):
        """The four-action progress loop (Section V-C), forever.

        Each action's generator is only entered when its input source is
        non-empty; an empty source is exactly the case where the action
        would have returned False without yielding, so skipping the call
        changes no simulated behaviour, only Python overhead.  The
        backend's ``update()`` is skipped the same way whenever its
        ``needs_update()`` predicate is False.
        """
        nic = self.nic
        # the FIFOs' deques: an empty check is a C-level truth test
        rx_items = nic.rx_fifo.items
        cmd_items = nic.host_cmd_fifo.items
        tx_dma = nic.tx_dma
        rx_dma = nic.rx_dma
        kick = nic.kick
        idle_timeout = us(10)
        # priority scheduling (repro.nic.qdisc): host commands drain the
        # matching queues while network arrivals fill them, so under an
        # unexpected flood servicing the host first keeps receives flowing
        host_first = nic.config.qdisc.host_priority
        while True:
            self.loop_iterations += 1
            progress = False
            if host_first and cmd_items:
                yield from self._check_host()
                progress = True
            if rx_items:
                yield from self._check_network()
                progress = True
            if not host_first and cmd_items:
                yield from self._check_host()
                progress = True
            if tx_dma.completed or rx_dma.completed:
                progress |= yield from self._advance_active()
            backend = self.backend
            if backend.has_update and backend.needs_update():
                try:
                    progress |= yield from backend.update()
                except AlpuStallError as err:
                    self._degrade(err)
                    progress |= yield from self.backend.update()
            if not progress:
                yield wait_on(kick, timeout_ps=idle_timeout)

    # ======================================================== network input
    def _check_network(self):
        packet = self.nic.rx_fifo.try_pop()
        if packet is None:
            return False
        yield delay(
            self.proc.compute(self.cost.poll_cycles + self.cost.header_parse_cycles)
        )
        if self.recorder.enabled:
            self.recorder.record(
                self.nic.name, "nic_rx", packet.send_id, {"kind": packet.kind.name}
            )
        kind = packet.kind
        if kind.carries_match:
            yield from self._handle_match_packet(packet)
        elif kind is RNDV_CTS:
            yield from self._handle_cts(packet)
        elif kind is RNDV_DATA:
            yield from self._handle_rndv_data(packet)
        return True

    def _handle_match_packet(self, packet: Packet):
        """Run the incoming header against the posted receive queue."""
        request = MatchRequest(bits=packet.match_bits)
        rec = self.recorder
        if rec.enabled:
            visited_before = self.entries_traversed
            rec.record(
                self.nic.name,
                "match_search",
                packet.send_id,
                {
                    "queue": self.posted_recv_q.name,
                    "depth": len(self.posted_recv_q),
                },
            )
        try:
            entry = yield from self.backend.match_arrival(request)
        except AlpuStallError as err:
            self._degrade(err, uid=packet.send_id)
            entry = yield from self.backend.match_arrival(request)
        if rec.enabled:
            rec.annotate_uid(
                packet.send_id,
                visited=self.entries_traversed - visited_before,
                hit=entry is not None,
                **rec.pop_search_notes(),
            )
        if entry is not None:
            self.headers_matched += 1
            if rec.enabled:
                # the receive-side entry now carries the message through
                # delivery/DMA/completion; its host receive's completion
                # is the message's terminal event
                rec.alias_uid(entry.uid, packet.send_id)
                rec.mark_request(
                    entry.owner_rank,
                    entry.host_req_id,
                    self.nic.name,
                    "matched",
                    detail={"via": "arrival"},
                )
                rec.watch_completion(
                    entry.owner_rank, entry.host_req_id, packet.send_id
                )
            yield from self._deliver_to_receive(packet, entry)
        else:
            self.headers_unexpected += 1
            yield from self._enqueue_unexpected(packet)

    def _deliver_to_receive(self, packet: Packet, entry: QueueEntry):
        """A header matched a posted receive: move the data, complete."""
        _, source, tag = self.fmt.unpack(packet.match_bits)
        entry.matched_source = source
        entry.matched_tag = tag
        entry.matched_size = packet.payload_bytes
        entry.peer_send_id = packet.send_id
        if packet.kind is EAGER:
            yield from self._start_recv_payload(entry, packet.payload_bytes)
        else:  # RNDV_RTS: grant the sender a clear-to-send
            if self.recorder.enabled:
                self.recorder.record(self.nic.name, "rndv_cts", packet.send_id)
            yield delay(self.proc.compute(self.cost.rendezvous_cycles))
            self.active_recv_q[entry.uid] = entry
            self.nic.inject(
                Packet(
                    kind=RNDV_CTS,
                    src=self.nic.node_id,
                    dst=packet.src,
                    match_bits=0,
                    payload_bytes=0,
                    send_id=packet.send_id,
                    recv_id=entry.uid,
                )
            )

    def _start_recv_payload(self, entry: QueueEntry, payload_bytes: int):
        """DMA arrived payload to the host buffer, then complete."""
        if self.recorder.enabled:
            self.recorder.record(
                self.nic.name, "deliver", entry.uid, {"bytes": payload_bytes}
            )
        if payload_bytes == 0:
            yield from self._complete_recv(entry)
            self._release(entry)
            return
        yield delay(self.proc.compute(self.cost.dma_setup_cycles))
        if self.recorder.enabled:
            self.recorder.record(self.nic.name, "rx_dma", entry.uid)
        self.nic.rx_dma.start(payload_bytes, ("recv_done", entry))

    def _complete_recv(self, entry: QueueEntry):
        """Completion carrying the matched envelope (MPI_Status)."""
        if self.recorder.enabled:
            self.recorder.record(self.nic.name, "completion", entry.uid)
        yield delay(self.proc.compute(self.cost.completion_cycles))
        self.completions_sent += 1
        link = self.nic.completion_link(self.nic.lproc_of(entry.owner_rank))
        link.send(
            Completion(
                req_id=entry.host_req_id,
                source=entry.matched_source,
                tag=entry.matched_tag,
                size=entry.matched_size,
                send_id=entry.peer_send_id,
            )
        )

    def _release(self, entry: QueueEntry) -> None:
        """Return an entry's block to the NIC allocator (any queue)."""
        if entry.addr:
            self.nic.allocator.free(entry.addr, ENTRY_BYTES)

    def _enqueue_unexpected(self, packet: Packet):
        """No posted receive matched: park the header (Section V-C)."""
        kind = UNEXPECTED_EAGER if packet.kind is EAGER else UNEXPECTED_RNDV
        if self.recorder.enabled:
            # post-append depth, the posted_wait mark's convention (the
            # entry being parked counts itself); the record just precedes
            # the costed append, so the residency starts on arrival
            self.recorder.record(
                self.nic.name,
                "unexpected_queue",
                packet.send_id,
                {"depth": len(self.unexpected_q) + 1},
            )
        entry = self.unexpected_q.allocate_entry(
            kind=kind,
            bits=packet.match_bits,
            mask=0,
            size=packet.payload_bytes,
            peer_send_id=packet.send_id,
            src_node=packet.src,
        )
        cost = self.proc.compute(self.cost.enqueue_cycles)
        cost += self.proc.touch(entry.addr, ENTRY_BYTES, write=True)
        yield delay(cost)
        self.unexpected_q.append(entry)
        yield from self.backend.note_unexpected(entry)

    # ===================================================== rendezvous flows
    def _handle_cts(self, packet: Packet):
        """Sender side: receiver granted clear-to-send; stream the data."""
        record = self.pending_rndv_sends.pop(packet.send_id, None)
        if record is None:
            raise RuntimeError(
                f"nic{self.nic.node_id}: CTS for unknown send {packet.send_id}"
            )
        entry, dest = record
        if self.recorder.enabled:
            self.recorder.record(self.nic.name, "rndv_data_dma", entry.uid)
        yield delay(self.proc.compute(self.cost.dma_setup_cycles))
        data = Packet(
            kind=RNDV_DATA,
            src=self.nic.node_id,
            dst=dest,
            match_bits=0,
            payload_bytes=entry.size,
            send_id=entry.uid,
            recv_id=packet.recv_id,
        )
        self.nic.tx_dma.start(entry.size, ("send_out", data, entry))

    def _handle_rndv_data(self, packet: Packet):
        """Receiver side: rendezvous payload arrived for an active recv."""
        entry = self.active_recv_q.pop(packet.recv_id, None)
        if entry is None:
            raise RuntimeError(
                f"nic{self.nic.node_id}: RNDV_DATA for unknown recv "
                f"{packet.recv_id}"
            )
        yield from self._start_recv_payload(entry, packet.payload_bytes)

    # ========================================================== host input
    def _check_host(self):
        command = self.nic.host_cmd_fifo.try_pop()
        if command is None:
            return False
        yield delay(self.proc.compute(self.cost.poll_cycles))
        if isinstance(command, PostRecv):
            yield from self._post_receive(command)
        elif isinstance(command, PostSend):
            yield from self._post_send(command)
        return True

    def _post_receive(self, command: PostRecv):
        """Search the unexpected queue, else post (Section II atomicity
        comes free: this loop is the only matching agent)."""
        bits, mask = self.fmt.pack_receive(
            self.nic.effective_context(command.context, command.rank),
            command.source,
            command.tag,
        )
        request = MatchRequest(bits=bits, mask=mask)
        rec = self.recorder
        if rec.enabled:
            search_began = self.nic.engine.now
            visited_before = self.entries_traversed
            rec.mark_request(
                command.rank,
                command.req_id,
                self.nic.name,
                "unexpected_search",
                search_began,
                {
                    "queue": self.unexpected_q.name,
                    "depth": len(self.unexpected_q),
                },
            )
        try:
            unexpected = yield from self.backend.consume_unexpected(request)
        except AlpuStallError as err:
            self._degrade(err)
            unexpected = yield from self.backend.consume_unexpected(request)
        if rec.enabled:
            search_facts = dict(
                visited=self.entries_traversed - visited_before,
                hit=unexpected is not None,
                **rec.pop_search_notes(),
            )
            rec.annotate_request(command.rank, command.req_id, **search_facts)
        if unexpected is not None:
            if rec.enabled:
                rec.mark_request(
                    command.rank,
                    command.req_id,
                    self.nic.name,
                    "matched",
                    detail={"via": "unexpected"},
                )
                # retroactive message attribution: only now do we know
                # which parked message this search served.  Stamping the
                # search's start time keeps the mark monotone -- the
                # message was enqueued before the search began.
                rec.record(
                    self.nic.name,
                    "unexpected_search",
                    unexpected.peer_send_id,
                    search_facts,
                    time_ps=search_began,
                )
                rec.alias_uid(unexpected.uid, unexpected.peer_send_id)
                rec.watch_completion(
                    command.rank, command.req_id, unexpected.peer_send_id
                )
            yield from self._consume_unexpected(command, unexpected)
            return
        entry = self.posted_recv_q.allocate_entry(
            kind=POSTED_RECV,
            bits=bits,
            mask=mask,
            size=command.size,
            host_req_id=command.req_id,
            owner_rank=command.rank,
        )
        cost = self.proc.compute(self.cost.enqueue_cycles)
        cost += self.proc.touch(entry.addr, ENTRY_BYTES, write=True)
        yield delay(cost)
        self.posted_recv_q.append(entry)
        if rec.enabled:
            rec.mark_request(
                command.rank,
                command.req_id,
                self.nic.name,
                "posted_wait",
                detail={"depth": len(self.posted_recv_q)},
            )
        yield from self.backend.post_receive(entry)

    def _consume_unexpected(self, command: PostRecv, unexpected: QueueEntry):
        """The posted receive matched an already-arrived message.

        The unexpected entry itself becomes the active receive record; its
        block is released once the payload lands in the host buffer.
        """
        unexpected.host_req_id = command.req_id
        unexpected.owner_rank = command.rank
        _, source, tag = self.fmt.unpack(unexpected.bits)
        unexpected.matched_source = source
        unexpected.matched_tag = tag
        unexpected.matched_size = unexpected.size
        if unexpected.kind is UNEXPECTED_EAGER:
            # payload is parked in NIC memory; move it to the host buffer
            yield from self._start_recv_payload(unexpected, unexpected.size)
        else:  # rendezvous: grant the sender a CTS now
            if self.recorder.enabled:
                self.recorder.record(self.nic.name, "rndv_cts", unexpected.uid)
            yield delay(self.proc.compute(self.cost.rendezvous_cycles))
            self.active_recv_q[unexpected.uid] = unexpected
            self.nic.inject(
                Packet(
                    kind=RNDV_CTS,
                    src=self.nic.node_id,
                    dst=unexpected.src_node,
                    match_bits=0,
                    payload_bytes=0,
                    send_id=unexpected.peer_send_id,
                    recv_id=unexpected.uid,
                )
            )

    def _post_send(self, command: PostSend):
        # the match word carries the *destination's* folded context and
        # the sender's global rank as the source field
        rec = self.recorder
        if rec.enabled:
            rec.mark_request(
                command.rank,
                command.req_id,
                self.nic.name,
                "nic_post",
                detail={"size": command.size},
            )
        bits = self.fmt.pack(
            self.nic.effective_context(command.context, command.dest),
            command.rank,
            command.tag,
        )
        dest_node = self.nic.node_of(command.dest)
        entry = self.send_q.allocate_entry(
            kind=SEND,
            bits=bits,
            mask=0,
            size=command.size,
            host_req_id=command.req_id,
            owner_rank=command.rank,
        )
        if rec.enabled:
            # the lifecycle follows the wire entity from here on: packets
            # carry ``send_id=entry.uid``, so bind it to the send request
            rec.bind_uid(command.rank, command.req_id, entry.uid)
        cost = self.proc.compute(self.cost.enqueue_cycles)
        cost += self.proc.touch(entry.addr, ENTRY_BYTES, write=True)
        yield delay(cost)
        self.send_q.append(entry)
        if command.size <= self.cfg.eager_threshold:
            packet = Packet(
                kind=EAGER,
                src=self.nic.node_id,
                dst=dest_node,
                match_bits=bits,
                payload_bytes=command.size,
                send_id=entry.uid,
            )
            if command.size == 0:
                self.nic.inject(packet)
                yield from self._complete_to_host(command.req_id, command.rank)
                self.send_q.remove(entry)
                self._release(entry)
            else:
                yield delay(self.proc.compute(self.cost.dma_setup_cycles))
                if rec.enabled:
                    rec.record(self.nic.name, "tx_dma", entry.uid)
                self.nic.tx_dma.start(command.size, ("send_out", packet, entry))
        else:
            self.pending_rndv_sends[entry.uid] = (entry, dest_node)
            self.nic.inject(
                Packet(
                    kind=RNDV_RTS,
                    src=self.nic.node_id,
                    dst=dest_node,
                    match_bits=bits,
                    payload_bytes=command.size,
                    send_id=entry.uid,
                )
            )

    # ===================================================== active requests
    def _advance_active(self):
        """Drain DMA completions: inject fetched sends, complete receives."""
        progress = False
        for dma in (self.nic.tx_dma, self.nic.rx_dma):
            while dma.completed:
                cookie = dma.completed.popleft()
                progress = True
                yield delay(self.proc.compute(self.cost.poll_cycles))
                if cookie[0] == "send_out":
                    _, packet, entry = cookie
                    self.nic.inject(packet)
                    yield from self._complete_to_host(
                        entry.host_req_id, entry.owner_rank
                    )
                    self.send_q.remove(entry)
                    self._release(entry)
                elif cookie[0] == "recv_done":
                    entry = cookie[1]
                    yield from self._complete_recv(entry)
                    self._release(entry)
                else:  # pragma: no cover - cookie protocol violation
                    raise RuntimeError(f"unknown DMA cookie {cookie!r}")
        return progress

    def _complete_to_host(self, req_id: int, owner_rank: int = 0):
        yield delay(self.proc.compute(self.cost.completion_cycles))
        self.completions_sent += 1
        link = self.nic.completion_link(self.nic.lproc_of(owner_rank))
        link.send(Completion(req_id=req_id))
