"""The packet header checksum: bit-identical to the reference FNV-1a."""

from hypothesis import given
from hypothesis import strategies as st

from repro.network.packet import Packet, PacketKind, header_checksum


def reference_checksum(packet: Packet) -> int:
    """Loop-form FNV-1a over the header words (the defining algorithm)."""
    digest = 0xCBF29CE484222325
    for word in (
        int.from_bytes(packet.kind.value.encode(), "little"),
        packet.src,
        packet.dst,
        packet.match_bits,
        packet.payload_bytes,
        packet.send_id,
        packet.recv_id,
        packet.rel_seq & 0xFFFFFFFF,
    ):
        digest ^= word
        digest = (digest * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


@given(
    kind=st.sampled_from(list(PacketKind)),
    src=st.integers(0, 4096),
    dst=st.integers(0, 4096),
    match_bits=st.integers(0, 2**64 - 1),
    payload_bytes=st.integers(0, 2**31),
    send_id=st.integers(0, 2**63),
    recv_id=st.integers(0, 2**63),
    rel_seq=st.one_of(st.just(-1), st.integers(0, 2**40), st.integers(2**32, 2**48)),
)
def test_checksum_matches_reference(
    kind, src, dst, match_bits, payload_bytes, send_id, recv_id, rel_seq
):
    packet = Packet(
        kind=kind,
        src=src,
        dst=dst,
        match_bits=match_bits,
        payload_bytes=payload_bytes,
        send_id=send_id,
        recv_id=recv_id,
        rel_seq=rel_seq,
    )
    assert header_checksum(packet) == reference_checksum(packet)


def test_checksum_literal_digests():
    assert header_checksum(
        Packet(PacketKind.EAGER, 1, 0, 0x0123456789ABCDEF, 64, send_id=17, rel_seq=5)
    ) == 0x937680C31368380E
    assert header_checksum(
        Packet(PacketKind.NACK_BUSY, 0, 3, 0, 0, rel_seq=-1)
    ) == 0x274B8944433D174D
    # the checksum field itself is outside the digest
    assert header_checksum(
        Packet(
            PacketKind.RNDV_DATA,
            7,
            2,
            2**64 - 1,
            4096,
            send_id=2**40,
            recv_id=123456789,
            rel_seq=2**32 + 9,
            checksum=5,
        )
    ) == 0x64B26F810CC9178F
