"""Link-level retransmission: the NIC's answer to a lossy fabric.

Modelled on the hardware retransmission units of APEnet+-class NICs: a
thin layer between the firmware's packet injection and the fabric that

* stamps every outgoing data packet with a per-destination sequence
  number (``rel_seq``) and a header checksum;
* keeps a per-destination retransmit record until the receiver's ACK
  arrives, re-injecting on a timeout with exponential backoff and a
  bounded retry budget (:class:`RetryExhaustedError` when exhausted);
* on the receive side verifies the checksum (NACKing corrupt packets),
  ACKs every valid data packet, drops duplicates, and holds out-of-order
  packets in a reorder buffer so the NIC firmware still observes the
  per-(src, dst) in-order delivery MPI's ordering semantics build on.

ACK/NACK generation and verification are hardware-assisted (link-level,
like the CRC engines they model): they cost no NIC-processor cycles,
only wire traffic.  The layer is entirely inert unless
:attr:`ReliabilityConfig.enabled` is set -- a disabled NIC never routes a
packet through it, keeping the zero-fault benchmarks bit-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.network.packet import ACK, NACK, NACK_BUSY, Packet, PacketKind, header_checksum, seal
from repro.sim.engine import SimulationError
from repro.sim.timerwheel import Slot, TimerWheel
from repro.sim.units import us

#: every control packet is one seal() of this with kind, ends and rel_seq set
_CONTROL = Packet(kind=ACK, src=0, dst=0, match_bits=0, payload_bytes=0)


class RetryExhaustedError(SimulationError):
    """A packet went unacknowledged through the whole retry budget."""


@dataclasses.dataclass(frozen=True)
class ReliabilityConfig:
    """Retransmission tunables (per NIC)."""

    enabled: bool = False
    #: time to wait for an ACK before the first retransmission; one RTT
    #: is ~400 ns wire + serialization, so 2 us rides out fabric jitter
    ack_timeout_ps: int = us(2)
    #: timeout multiplier per successive retry of one packet
    backoff: float = 2.0
    #: retransmissions allowed per packet before giving up
    max_retries: int = 8
    #: ceiling for the NACK_BUSY defer interval; without it a sender
    #: parked behind a long-lived flood backs off geometrically forever
    #: and outlives the receiver's drain by whole simulated seconds
    busy_backoff_cap_ps: int = us(64)

    def __post_init__(self) -> None:
        if self.ack_timeout_ps <= 0:
            raise ValueError(f"ack_timeout_ps must be > 0, got {self.ack_timeout_ps}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.busy_backoff_cap_ps < self.ack_timeout_ps:
            raise ValueError(
                "busy_backoff_cap_ps must be >= ack_timeout_ps, got "
                f"{self.busy_backoff_cap_ps}"
            )


class _TxRecord:
    """One unacknowledged packet awaiting its ACK; also its own timer key."""

    __slots__ = ("packet", "retries", "timeout_ps", "timer")

    def __init__(self, packet: Packet, timeout_ps: int) -> None:
        self.packet = packet
        self.retries = 0
        self.timeout_ps = timeout_ps
        #: the wheel slot holding this record while its timer is armed;
        #: ``timer.pop(record, None)`` cancels
        self.timer: Optional[Slot] = None


class ReliabilityLayer:
    """Per-NIC sequence/ACK/retransmit state machine."""

    def __init__(self, nic, config: ReliabilityConfig) -> None:
        # `nic` is a repro.nic.nic.Nic; typed loosely to avoid the cycle
        self.nic = nic
        self.engine = nic.engine
        self.config = config
        #: next outgoing rel_seq, per destination node
        self._next_tx_seq: Dict[int, int] = {}
        #: next in-order rel_seq expected, per source node
        self._expected_rx: Dict[int, int] = {}
        #: in-flight unacknowledged packets, keyed (dst, rel_seq)
        self._unacked: Dict[Tuple[int, int], _TxRecord] = {}
        #: early (out-of-order) arrivals, keyed (src, rel_seq)
        self._reorder: Dict[Tuple[int, int], Packet] = {}
        #: retransmit timers -- a wheel, because nearly every timer is
        #: cancelled by its ACK before firing: wheel cancels are O(1)
        #: dict deletes that never leave tombstones in the engine heap,
        #: and same-deadline bursts share one engine event.  The records
        #: themselves are the timer keys.
        self._timers = TimerWheel(nic.engine, self._on_timeout)
        self.retransmits = 0
        self.busy_deferrals = 0
        self.acks_sent = 0
        #: NACKs and NACK_BUSYs
        self.nacks_sent = 0
        self.duplicates_dropped = 0
        self.corrupt_dropped = 0
        #: early arrivals parked in the reorder buffer, ever
        self.reordered_held = 0
        registry = self.engine.metrics
        if registry.enabled:
            registry.register_tallies(
                f"{nic.name}.rel",
                self,
                "retransmits",
                "busy_deferrals",
                "acks_sent",
                "nacks_sent",
                "duplicates_dropped",
                "corrupt_dropped",
                "reordered_held",
                "unacked",
                "reorder_held",
            )

    # ------------------------------------------------------------- levels
    @property
    def unacked(self) -> int:
        """In-flight unacknowledged packets."""
        return len(self._unacked)

    @property
    def reorder_held(self) -> int:
        """Out-of-order packets currently parked in the reorder buffer."""
        return len(self._reorder)

    def is_rx_head(self, packet: Packet) -> bool:
        """Is this arrival the next in-order packet from its source?

        Admission control treats the head specially: refusing it cannot
        shed load (its ACKed successors already sit in the reorder
        buffer) and can livelock the flow -- see
        :meth:`repro.nic.qdisc.AdmissionControl.admits`.
        """
        return packet.rel_seq == self._expected_rx.get(packet.src, 0)

    # --------------------------------------------------------------- tx side
    def send(self, packet: Packet) -> None:
        """Stamp, track, and inject one firmware data packet."""
        seq = self._next_tx_seq.get(packet.dst, 0)
        self._next_tx_seq[packet.dst] = seq + 1
        stamped = seal(packet, rel_seq=seq)
        record = _TxRecord(stamped, self.config.ack_timeout_ps)
        self._unacked[(stamped.dst, seq)] = record
        self.nic.fabric.inject(stamped)
        self._arm_timer(record)

    def _arm_timer(self, record: _TxRecord) -> None:
        record.timer = self._timers.schedule(record.timeout_ps, record)

    def _on_timeout(self, record: _TxRecord) -> None:
        # every record still armed is unacknowledged: the ACK path
        # cancels the timer when it retires the record
        self._retransmit(record, reason="timeout")

    def _retransmit(self, record: _TxRecord, reason: str) -> None:
        packet = record.packet
        record.timer.pop(record, None)
        if record.retries >= self.config.max_retries:
            raise RetryExhaustedError(
                f"{self.nic.name}: {packet.kind.name} rel_seq={packet.rel_seq} "
                f"to node {packet.dst} unacknowledged after "
                f"{record.retries} retries"
            )
        record.retries += 1
        record.timeout_ps = round(record.timeout_ps * self.config.backoff)
        self.retransmits += 1
        recorder = self.engine.recorder
        if recorder.enabled:
            recorder.record(
                self.nic.name,
                "retransmit",
                packet.send_id,
                {
                    "rel_seq": packet.rel_seq,
                    "attempt": record.retries,
                    "reason": reason,
                },
            )
        self.nic.fabric.inject(packet)
        self._arm_timer(record)

    def _defer_retransmit(self, record: _TxRecord) -> None:
        """Receiver alive but full (NACK_BUSY): back off, retry later.

        Resets the retry budget -- the budget guards against a dead peer
        or link, and a NACK_BUSY is proof of liveness -- but keeps
        multiplying the timeout, so a persistently full receiver sees an
        exponentially calmer sender instead of a wire-RTT ping-pong.
        """
        record.timer.pop(record, None)
        record.retries = 0
        record.timeout_ps = min(
            round(record.timeout_ps * self.config.backoff),
            self.config.busy_backoff_cap_ps,
        )
        self.busy_deferrals += 1
        if self.engine.recorder.enabled:
            self.engine.recorder.record(
                self.nic.name,
                "busy_defer",
                detail={
                    "dst": record.packet.dst,
                    "rel_seq": record.packet.rel_seq,
                    "next_try_ps": record.timeout_ps,
                },
            )
        self._arm_timer(record)

    # --------------------------------------------------------------- rx side
    def on_wire_arrival(self, packet: Packet) -> None:
        """The node's fabric receiver: every packet landing here, first."""
        kind = packet.kind
        if header_checksum(packet) != packet.checksum:
            # corrupt header: drop it and (for data) ask for a resend now
            # rather than waiting out the sender's timeout.  A corrupt
            # ACK/NACK is just dropped -- the retransmit timer covers it.
            self.corrupt_dropped += 1
            if kind is not ACK and kind is not NACK and kind is not NACK_BUSY:
                self._send_control(NACK, packet)
            return
        if kind is ACK:
            record = self._unacked.pop((packet.src, packet.rel_seq), None)
            if record is not None:
                record.timer.pop(record, None)
            return
        if kind is NACK:
            record = self._unacked.get((packet.src, packet.rel_seq))
            if record is not None:
                self._retransmit(record, reason="nack")
            return
        if kind is NACK_BUSY:
            record = self._unacked.get((packet.src, packet.rel_seq))
            if record is not None:
                self._defer_retransmit(record)
            return
        # valid data packet
        expected = self._expected_rx.get(packet.src, 0)
        if packet.rel_seq < expected:
            # duplicate: our first ACK was lost, so the re-ACK is the
            # recovery (duplicates bypass admission -- the original was
            # already accepted and delivered)
            self._send_control(ACK, packet)
            self.duplicates_dropped += 1
            return
        admission = self.nic.admission
        if admission is not None and not admission.admits(packet):
            # refused *before* the ACK: the sender keeps ownership and
            # retries once the buffers drain -- via its timeout under
            # the "drop" policy, via the NACK_BUSY schedule under "nack".
            # The packet is not parked in the reorder buffer either; a
            # flood must not hide there.
            if admission.policy == "nack":
                self._send_control(NACK_BUSY, packet)
                admission.note_refused(packet, nacked=True)
            else:
                admission.note_refused(packet, nacked=False)
            return
        self._send_control(ACK, packet)
        if packet.rel_seq > expected:
            # early: hold until the gap fills so the firmware still sees
            # per-pair in-order delivery
            self._reorder[(packet.src, packet.rel_seq)] = packet
            self.reordered_held += 1
            return
        self.nic.accept_packet(packet)
        expected += 1
        while (held := self._reorder.pop((packet.src, expected), None)) is not None:
            self.nic.accept_packet(held)
            expected += 1
        self._expected_rx[packet.src] = expected

    def _send_control(self, kind: PacketKind, about: Packet) -> None:
        """Inject a link-level ACK/NACK (no processor involvement)."""
        if kind is ACK:
            self.acks_sent += 1
        else:
            self.nacks_sent += 1
        self.nic.fabric.inject(
            seal(
                _CONTROL,
                kind=kind,
                src=self.nic.node_id,
                dst=about.src,
                rel_seq=about.rel_seq,
            )
        )
