"""Tests for the Portals-style match list (Section VIII future work)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.portals import MatchListEntry, PortalTable, PORTALS_MATCH_WIDTH


def me(bits, ignore=0, use_once=True, label=None):
    return MatchListEntry(
        match_bits=bits, ignore_bits=ignore, use_once=use_once, user_ptr=label
    )


@pytest.fixture(params=["software", "alpu"])
def table(request):
    return PortalTable(backend=request.param)


def test_width_validation():
    with pytest.raises(ValueError):
        MatchListEntry(match_bits=1 << PORTALS_MATCH_WIDTH)
    with pytest.raises(ValueError):
        PortalTable(backend="tcam")


def test_first_match_wins(table):
    table.append(me(0xAA, label="first"))
    table.append(me(0xAA, label="second"))
    assert table.deliver(0xAA).user_ptr == "first"
    assert table.deliver(0xAA).user_ptr == "second"
    assert table.deliver(0xAA) is None


def test_ignore_bits_are_dont_cares(table):
    table.append(me(0xF0, ignore=0x0F, label="ranged"))
    assert table.deliver(0xF7).user_ptr == "ranged"
    assert table.deliver(0xE7) is None


def test_use_once_unlinks_persistent_stays(table):
    table.append(me(0x1, use_once=False, label="doorbell"))
    for _ in range(3):
        assert table.deliver(0x1).user_ptr == "doorbell"
    assert len(table) == 1


def test_persistent_entry_keeps_its_list_position(table):
    """A persistent ME ahead of a use-once duplicate must keep winning --
    the ordering wrinkle the ALPU backend repairs after delete-on-match."""
    table.append(me(0x5, use_once=False, label="persistent"))
    table.append(me(0x5, use_once=True, label="younger"))
    assert table.deliver(0x5).user_ptr == "persistent"
    assert table.deliver(0x5).user_ptr == "persistent"
    assert len(table) == 2


def test_explicit_unlink(table):
    first = me(0x2, label="a")
    table.append(first)
    table.append(me(0x2, label="b"))
    table.unlink(first)
    assert table.deliver(0x2).user_ptr == "b"


def test_full_width_matching(table):
    wide = (1 << 63) | 0x1234_5678_9ABC
    table.append(me(wide))
    assert table.deliver(wide) is not None
    assert table.deliver(wide ^ (1 << 63)) is None


def test_alpu_capacity_guard():
    table = PortalTable(backend="alpu", alpu_cells=16)
    for i in range(16):
        table.append(me(i))
    with pytest.raises(RuntimeError, match="full"):
        table.append(me(99))


@settings(max_examples=100)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("append"),
                st.integers(0, 7),
                st.sampled_from([0, 0b11, 0b101]),
                st.booleans(),
            ),
            st.tuples(st.just("deliver"), st.integers(0, 7)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_backends_are_differentially_equal(ops):
    """Software list == ALPU backend for any append/deliver trace."""
    software = PortalTable(backend="software")
    hardware = PortalTable(backend="alpu", alpu_cells=64)
    for op in ops:
        if op[0] == "append":
            _, bits, ignore, use_once = op
            if len(software) >= 64:
                continue
            software.append(me(bits, ignore, use_once))
            hardware.append(me(bits, ignore, use_once))
        else:
            _, bits = op
            a = software.deliver(bits)
            b = hardware.deliver(bits)
            if a is None:
                assert b is None
            else:
                assert b is not None
                assert (a.match_bits, a.ignore_bits, a.use_once) == (
                    b.match_bits,
                    b.ignore_bits,
                    b.use_once,
                )
        assert [e.match_bits for e in software.entries()] == [
            e.match_bits for e in hardware.entries()
        ]
