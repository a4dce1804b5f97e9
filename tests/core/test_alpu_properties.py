"""Property-based differential testing: ALPU vs the reference list.

The central correctness claim of the hardware is that, for *any*
interleaving of inserts and matches -- with wildcards, batched inserts,
and matches landing mid-batch -- the ALPU pairs requests with entries
exactly as an ordered linear list would.  Hypothesis drives both with the
same traffic and compares every response and the full survivor order.
"""

import dataclasses
from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.alpu import Alpu, AlpuConfig, CompactionReach
from repro.core.cell import CellKind
from repro.core.commands import (
    Insert,
    MatchFailure,
    MatchSuccess,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.core.match import MatchEntry, MatchFormat, MatchRequest
from repro.core.reference import ReferenceMatchList

FMT = MatchFormat()

# keep the universe small so collisions (and wildcard hits) are common
contexts = st.integers(0, 1)
sources = st.integers(0, 3)
tags = st.integers(0, 3)


@dataclasses.dataclass(frozen=True)
class InsertOp:
    context: int
    source: int  # -1 = ANY_SOURCE (posted-receive direction)
    tag: int  # -1 = ANY_TAG


@dataclasses.dataclass(frozen=True)
class MatchOp:
    context: int
    source: int
    tag: int


insert_ops = st.builds(
    InsertOp,
    context=contexts,
    source=st.one_of(st.just(-1), sources),
    tag=st.one_of(st.just(-1), tags),
)
match_ops = st.builds(MatchOp, context=contexts, source=sources, tag=tags)
#: an operation trace; lists of inserts model batched insert mode
traces = st.lists(
    st.one_of(match_ops, st.lists(insert_ops, min_size=1, max_size=4)),
    min_size=1,
    max_size=60,
)

geometries = st.sampled_from([(8, 4), (16, 4), (16, 8), (32, 8), (64, 16)])
reaches = st.sampled_from([CompactionReach.BLOCK, CompactionReach.GLOBAL])


def run_differential(trace, total_cells, block_size, reach):
    alpu = Alpu(
        AlpuConfig(
            kind=CellKind.POSTED_RECEIVE,
            total_cells=total_cells,
            block_size=block_size,
            compaction_reach=reach,
        )
    )
    reference = ReferenceMatchList()
    next_tag = iter(range(1_000_000))

    for op in trace:
        if isinstance(op, MatchOp):
            request = MatchRequest(bits=FMT.pack(op.context, op.source, op.tag))
            responses = alpu.present_header(request)
            expected, _ = reference.match(request)
            assert len(responses) == 1
            if expected is None:
                assert responses == [MatchFailure()]
            else:
                assert responses == [MatchSuccess(tag=expected.tag)]
        else:  # batched inserts under one START/STOP INSERT pair
            acks = alpu.submit(StartInsert())
            assert acks == [StartAcknowledge(free_entries=alpu.free_entries)]
            assert acks[0].free_entries == total_cells - len(reference)
            for insert in op:
                if alpu.free_entries == 0:
                    break
                bits, mask = FMT.pack_receive(
                    insert.context, insert.source, insert.tag
                )
                tag = next(next_tag)
                alpu.submit(Insert(bits, mask, tag))
                reference.append(MatchEntry(bits=bits, mask=mask, tag=tag))
            alpu.submit(StopInsert())
        # survivor order must agree after every operation
        assert [e.tag for e in alpu.entries()] == [
            e.tag for e in reference.snapshot()
        ]


@settings(max_examples=200)
@given(trace=traces, geometry=geometries, reach=reaches)
def test_alpu_equals_reference_list(trace, geometry, reach):
    total_cells, block_size = geometry
    run_differential(trace, total_cells, block_size, reach)


@settings(max_examples=150)
@given(trace=traces)
def test_matches_arriving_mid_batch_preserve_order(trace):
    """Matches landing mid-batch: the held-failure protocol under fire.

    Requests presented during insert mode may be held; the ALPU resolves
    them lazily (after inserts, or at STOP INSERT).  The oracle applies
    each request to the reference list *at the moment the ALPU resolves
    it* -- so a held failure correctly sees entries inserted while it
    waited -- and every response must agree.
    """
    alpu = Alpu(AlpuConfig(total_cells=16, block_size=4))
    reference = ReferenceMatchList()
    next_tag = iter(range(1_000_000))
    unresolved: List[MatchRequest] = []

    def check(responses) -> None:
        """Pair emitted responses with waiting requests, oldest first."""
        for response in responses:
            if isinstance(response, StartAcknowledge):
                continue
            request = unresolved.pop(0)
            expected, _ = reference.match(request)
            if expected is None:
                assert response == MatchFailure()
            else:
                assert response == MatchSuccess(tag=expected.tag)

    for op in trace:
        if isinstance(op, MatchOp):
            request = MatchRequest(bits=FMT.pack(op.context, op.source, op.tag))
            unresolved.append(request)
            check(alpu.present_header(request))
        else:
            check(alpu.submit(StartInsert()))
            for insert in op:
                if alpu.free_entries == 0:
                    break
                bits, mask = FMT.pack_receive(
                    insert.context, insert.source, insert.tag
                )
                tag = next(next_tag)
                reference.append(MatchEntry(bits=bits, mask=mask, tag=tag))
                check(alpu.submit(Insert(bits, mask, tag)))
            check(alpu.submit(StopInsert()))

    assert not unresolved  # every request resolved by the final STOP INSERT
    assert [e.tag for e in alpu.entries()] == [e.tag for e in reference.snapshot()]


@settings(max_examples=100)
@given(
    trace=st.lists(match_ops, min_size=1, max_size=30),
    preload=st.lists(insert_ops, min_size=1, max_size=16),
)
def test_match_only_streams_never_duplicate_deliveries(trace, preload):
    """Every stored entry is delivered at most once (delete-on-match)."""
    alpu = Alpu(AlpuConfig(total_cells=16, block_size=4))
    alpu.submit(StartInsert())
    for i, insert in enumerate(preload[:16]):
        bits, mask = FMT.pack_receive(insert.context, insert.source, insert.tag)
        alpu.submit(Insert(bits, mask, i))
    alpu.submit(StopInsert())
    delivered = []
    for op in trace:
        request = MatchRequest(bits=FMT.pack(op.context, op.source, op.tag))
        for response in alpu.present_header(request):
            if isinstance(response, MatchSuccess):
                delivered.append(response.tag)
    assert len(delivered) == len(set(delivered))
