"""Every registered match backend against the oracle, same traffic.

The shared harness in :mod:`tests.nic.traffic` generates one phased
traffic case per example; each registered backend must produce the
oracle's exact pairings and leftover-unexpected count on it.  This is
the single differential gate a new backend has to pass -- register it
and it is automatically tested here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.match import ANY_SOURCE, ANY_TAG
from repro.nic.backends import registered_backends
from repro.nic.nic import NicConfig

from tests.nic.traffic import (
    TrafficCase,
    check_backend_against_oracle,
    oracle_run,
)


def nic_for_backend(name: str) -> NicConfig:
    """A small NIC configuration exercising the named backend.

    The ALPU gets deliberately tiny geometry (16 cells, blocks of 4) so
    generated cases overflow into the software-suffix path.
    """
    if name == "alpu":
        return NicConfig.with_alpu(total_cells=16, block_size=4)
    return NicConfig.with_backend(name)


_sources = st.sampled_from([ANY_SOURCE, 0])
_msg_tags = st.integers(0, 3)
_recv_tags = st.one_of(st.just(ANY_TAG), _msg_tags)
_ctxs = st.integers(0, 1)
_recvs = st.lists(
    st.tuples(_sources, _recv_tags, _ctxs), max_size=6
).map(tuple)
_msgs = st.lists(st.tuples(_msg_tags, _ctxs), max_size=8).map(tuple)

traffic_cases = st.builds(
    TrafficCase, pre_recvs=_recvs, msgs=_msgs, post_recvs=_recvs
)


@pytest.mark.parametrize("backend", sorted(registered_backends()))
@settings(max_examples=15)
@given(case=traffic_cases)
def test_backend_matches_oracle(backend, case):
    check_backend_against_oracle(case, nic_for_backend(backend))


@pytest.mark.parametrize("backend", sorted(registered_backends()))
def test_backend_on_adversarial_case(backend):
    """A hand-picked case hitting every phase: wildcard stealing order,
    unexpected consumption, post-phase wildcards, and drains."""
    case = TrafficCase(
        pre_recvs=((ANY_SOURCE, ANY_TAG, 0), (0, 2, 0), (0, 2, 1)),
        msgs=((2, 0), (2, 0), (2, 1), (3, 0), (1, 1)),
        post_recvs=((0, ANY_TAG, 1), (ANY_SOURCE, 3, 0), (0, 1, 0)),
    )
    check_backend_against_oracle(case, nic_for_backend(backend))


def test_drain_schedule_completes_every_receive():
    """Harness self-check: leftover posted receives always drain."""
    case = TrafficCase(
        pre_recvs=((0, 1, 0), (ANY_SOURCE, ANY_TAG, 1), (0, 3, 0)),
        msgs=(),
        post_recvs=((0, ANY_TAG, 0),),
    )
    oracle, drains = oracle_run(case)
    assert len(drains) == 4
    assert not oracle.posted
    assert len(oracle.pairings) == 4
