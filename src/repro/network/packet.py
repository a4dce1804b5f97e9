"""Packets: headers plus payload descriptors.

A packet's header carries exactly what the receive side needs to run the
MPI match: the packed {context, source, tag} bits, the payload length and
protocol bookkeeping.  In a real NIC (Fig. 1) "the header and data are
separated (logically, if not physically)"; we keep the payload as a size
only -- the simulation charges time for moving bytes, never the bytes
themselves.
"""

from __future__ import annotations

import dataclasses
import enum

#: wire overhead per packet (routing + match header + CRC), in bytes
HEADER_BYTES = 32

_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class PacketKind(enum.Enum):
    """Protocol slots used by the MPI implementation."""

    #: eager message: payload travels with the header
    EAGER = "eager"
    #: rendezvous request-to-send: header only, payload held at sender
    RNDV_RTS = "rndv_rts"
    #: rendezvous clear-to-send: receiver tells sender to stream payload
    RNDV_CTS = "rndv_cts"
    #: rendezvous payload
    RNDV_DATA = "rndv_data"
    #: reliability-layer acknowledgement (``rel_seq`` names the acked packet)
    ACK = "ack"
    #: reliability-layer negative ack: receiver saw a corrupt packet and
    #: asks the sender to retransmit ``rel_seq`` immediately
    NACK = "nack"
    #: admission-control refusal: the receiver's unexpected buffers are
    #: full; sender should retry ``rel_seq`` later (backed off, without
    #: spending retry budget -- the receiver is demonstrably alive)
    NACK_BUSY = "nack_busy"

    def __init__(self, value: str) -> None:
        # plain attributes: per-packet code never hashes a member or reads
        # one through the enum metaclass
        #: the payload travels with the header
        self.carries_payload = value in ("eager", "rndv_data")
        #: the header carries match bits the receiver runs the MPI match on
        self.carries_match = value in ("eager", "rndv_rts")
        #: FNV-1a state after the first header word, the value's bytes
        self.checksum_basis = (
            (0xCBF29CE484222325 ^ int.from_bytes(value.encode(), "little")) * _FNV_PRIME
        ) & _MASK64


# The members as module globals, for the packet path: an enum class has a
# metaclass ``__getattr__``, so ``PacketKind.ACK`` never gets a specialized
# attribute load and costs several global loads (DESIGN.md section 11).
EAGER = PacketKind.EAGER
RNDV_RTS = PacketKind.RNDV_RTS
RNDV_CTS = PacketKind.RNDV_CTS
RNDV_DATA = PacketKind.RNDV_DATA
ACK = PacketKind.ACK
NACK = PacketKind.NACK
NACK_BUSY = PacketKind.NACK_BUSY


@dataclasses.dataclass(frozen=True)
class Packet:
    """One unit of network traffic.

    Frozen, so one object can travel the wire many times: the fabric
    injects the packet it is given, and a retransmission or a fabric
    duplicate re-sends the same object.
    """

    kind: PacketKind
    src: int
    dst: int
    #: packed {context, source, tag} match bits (EAGER / RNDV_RTS)
    match_bits: int
    #: payload length in bytes (0 for control packets)
    payload_bytes: int
    #: sender-side request identifier (rendezvous handshake / completions)
    send_id: int = 0
    #: receiver-side entry identifier (CTS and RNDV_DATA routing)
    recv_id: int = 0
    #: reliability-layer sequence number (per (src, dst), stamped by the
    #: NIC's reliability layer; -1 when the layer is off)
    rel_seq: int = -1
    #: header checksum (see :func:`header_checksum`; 0 when the layer is off)
    checksum: int = 0

    @property
    def wire_bytes(self) -> int:
        """Bytes serialized on the wire."""
        return HEADER_BYTES + (self.payload_bytes if self.kind.carries_payload else 0)


def seal(packet: Packet, **fields) -> Packet:
    """A copy of ``packet`` with ``fields`` overwritten and the checksum
    set over the new header.

    The copy is a ``__dict__`` clone, because ``dataclasses.replace``
    re-runs the frozen ``__init__`` (Packet has no ``__post_init__`` for
    a clone to skip).
    """
    sealed = object.__new__(Packet)
    state = sealed.__dict__
    state.update(packet.__dict__)
    state.update(fields)
    state["checksum"] = header_checksum(sealed)
    return sealed


def header_checksum(packet: Packet) -> int:
    """64-bit FNV-1a over the header fields the receiver acts on.

    Excludes the ``checksum`` field itself.  FNV-1a masks to 64 bits
    after each step; this one unrolled pass masks once at the end, with
    the same digest: the low 64 bits of a product or an xor depend only
    on the operands'.
    """
    digest = (packet.kind.checksum_basis ^ packet.src) * _FNV_PRIME
    digest = (digest ^ packet.dst) * _FNV_PRIME
    digest = (digest ^ packet.match_bits) * _FNV_PRIME
    digest = (digest ^ packet.payload_bytes) * _FNV_PRIME
    digest = (digest ^ packet.send_id) * _FNV_PRIME
    digest = (digest ^ packet.recv_id) * _FNV_PRIME
    return ((digest ^ (packet.rel_seq & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
