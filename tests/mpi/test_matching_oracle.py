"""Unit tests for the pure matching oracle."""

from repro.core.match import ANY_SOURCE, ANY_TAG
from tests.mpi.matching import MatchingOracle, OracleMessage, OracleRecv


def msg(msg_id, context=1, source=0, tag=0):
    return OracleMessage(msg_id=msg_id, context=context, source=source, tag=tag)


def recv(recv_id, context=1, source=0, tag=0):
    return OracleRecv(recv_id=recv_id, context=context, source=source, tag=tag)


def test_posted_receive_matches_incoming_message():
    oracle = MatchingOracle()
    oracle.post_receive(recv(1, tag=5))
    assert oracle.message_arrives(msg(10, tag=5)) == 1
    assert oracle.pairings == [(1, 10)]
    assert oracle.posted == []


def test_unmatched_message_becomes_unexpected():
    oracle = MatchingOracle()
    assert oracle.message_arrives(msg(10, tag=5)) is None
    assert len(oracle.unexpected) == 1


def test_receive_drains_unexpected_first():
    oracle = MatchingOracle()
    oracle.message_arrives(msg(10, tag=5))
    assert oracle.post_receive(recv(1, tag=5)) == 10
    assert oracle.unexpected == []


def test_first_posted_receive_wins():
    oracle = MatchingOracle()
    oracle.post_receive(recv(1, tag=5))
    oracle.post_receive(recv(2, tag=5))
    assert oracle.message_arrives(msg(10, tag=5)) == 1
    assert oracle.message_arrives(msg(11, tag=5)) == 2


def test_oldest_unexpected_wins():
    oracle = MatchingOracle()
    oracle.message_arrives(msg(10, tag=5))
    oracle.message_arrives(msg(11, tag=5))
    assert oracle.post_receive(recv(1, tag=5)) == 10


def test_wildcard_source_and_tag():
    oracle = MatchingOracle()
    oracle.post_receive(recv(1, source=ANY_SOURCE, tag=ANY_TAG))
    assert oracle.message_arrives(msg(10, source=3, tag=9)) == 1


def test_ordering_beats_specificity():
    """An older ANY_SOURCE receive wins over a newer exact one."""
    oracle = MatchingOracle()
    oracle.post_receive(recv(1, source=ANY_SOURCE, tag=7))
    oracle.post_receive(recv(2, source=3, tag=7))
    assert oracle.message_arrives(msg(10, source=3, tag=7)) == 1


def test_context_isolation():
    oracle = MatchingOracle()
    oracle.post_receive(recv(1, context=1, tag=5))
    assert oracle.message_arrives(msg(10, context=2, tag=5)) is None
    assert oracle.post_receive(recv(2, context=2, tag=5)) == 10
