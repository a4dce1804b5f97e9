"""Property-based differential testing: ALPU vs its two oracles.

The central correctness claim of the hardware is that, for *any*
interleaving of inserts and matches -- with wildcards, batched inserts,
and matches landing mid-batch -- the ALPU pairs requests with entries
exactly as an ordered linear list would.  Hypothesis drives both with the
same traffic and compares every response and the full survivor order.

The packed :class:`Alpu` is also held in lockstep with the per-cell model
of ``tests/core/percell.py`` (cells, mux trees, a chain of blocks): every
response, every cell -- stale contents included -- and every cycle
counter must agree.  Tier-1 runs a fixed-seed slice of that lockstep; the
slow job runs the full search.
"""

import dataclasses
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CellKind
from repro.core.alpu import Alpu, AlpuConfig, AlpuMode, CompactionReach
from repro.core.commands import (
    Insert,
    MatchFailure,
    MatchSuccess,
    Reset,
    Response,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.core.match import MatchEntry, MatchFormat, MatchRequest
from tests.core.reference import ReferenceMatchList

from tests.core.percell import PerCellAlpu, flat_cells

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
#: receives being posted against the unexpected-message ALPU
wild_match_ops = st.builds(
    MatchOp,
    context=contexts,
    source=st.one_of(st.just(-1), sources),
    tag=st.one_of(st.just(-1), tags),
)


def traces_of(requests):
    """Operation traces; lists of inserts model batched insert mode."""
    return st.lists(
        st.one_of(requests, st.lists(insert_ops, min_size=1, max_size=4)),
        min_size=1,
        max_size=60,
    )


traces = traces_of(match_ops)
wild_traces = traces_of(wild_match_ops)

geometries = st.sampled_from([(8, 4), (16, 4), (16, 8), (32, 8), (64, 16)])
reaches = st.sampled_from([CompactionReach.BLOCK, CompactionReach.GLOBAL])


def request_for(op: MatchOp, kind: CellKind) -> MatchRequest:
    """A header (explicit bits) for the posted-receive ALPU; a receive
    being posted, wildcards as input mask bits, for the unexpected one."""
    if kind is CellKind.UNEXPECTED:
        bits, mask = FMT.pack_receive(op.context, op.source, op.tag)
        return MatchRequest(bits=bits, mask=mask)
    return MatchRequest(bits=FMT.pack(op.context, op.source, op.tag))


def stored_entry(bits: int, mask: int, tag: int, kind: CellKind) -> MatchEntry:
    """What the list holds: unexpected-message cells keep no mask."""
    if kind is CellKind.UNEXPECTED:
        mask = 0
    return MatchEntry(bits=bits, mask=mask, tag=tag)


def run_differential(trace, total_cells, block_size, reach, kind):
    alpu = Alpu(
        AlpuConfig(
            kind=kind,
            total_cells=total_cells,
            block_size=block_size,
            compaction_reach=reach,
        )
    )
    reference = ReferenceMatchList()
    next_tag = iter(range(1_000_000))

    for op in trace:
        if isinstance(op, MatchOp):
            request = request_for(op, kind)
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
                # a wildcard insert carries a nonzero mask, which the
                # unexpected-message ALPU must drop
                bits, mask = FMT.pack_receive(
                    insert.context, insert.source, insert.tag
                )
                tag = next(next_tag)
                alpu.submit(Insert(bits, mask, tag))
                reference.append(stored_entry(bits, mask, tag, kind))
            alpu.submit(StopInsert())
        # survivor order must agree after every operation
        assert alpu.entries() == reference.snapshot()


@pytest.mark.parametrize("kind", list(CellKind))
@settings(max_examples=200)
@given(data=st.data(), geometry=geometries, reach=reaches)
def test_alpu_equals_reference_list(kind, data, geometry, reach):
    trace = data.draw(wild_traces if kind is CellKind.UNEXPECTED else traces)
    total_cells, block_size = geometry
    run_differential(trace, total_cells, block_size, reach, kind)


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


# ------------------------------------------------ lockstep vs the per-cell model
@st.composite
def lockstep_cases(draw, kind=None):
    """A geometry, reach and kind (drawn unless given), plus a command stream.

    The stream is built from phases: insert batches with matches landing
    mid-batch (held failures and their retries), batches left open so
    later matches queue behind a held one, RESET with requests held,
    runs of bare compaction clocks, and stray commands the ALPU must
    discard.
    """
    total_cells, block_size = draw(
        st.sampled_from(
            [(4, 2), (8, 4), (16, 4), (16, 16), (32, 8), (64, 16), (256, 16)]
        )
    )
    reach = draw(reaches)
    if kind is None:
        kind = draw(st.sampled_from(list(CellKind)))
    requests = wild_match_ops if kind is CellKind.UNEXPECTED else match_ops
    batches = st.tuples(
        # insert-heavy, so batches fill the youngest cells and stall
        st.lists(
            st.one_of(insert_ops, insert_ops, insert_ops, requests),
            min_size=1,
            max_size=24,
        ),
        st.booleans(),  # closed by STOP INSERT?
    )
    phases = draw(
        st.lists(
            st.one_of(
                batches,
                batches,
                requests,
                insert_ops,  # outside insert mode: discarded
                st.integers(1, 40),  # compaction clocks
                st.sampled_from(["reset", "stop"]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    ops = []
    for phase in phases:
        if isinstance(phase, tuple):
            items, closed = phase
            ops += ["start", *items] + (["stop"] if closed else [])
        elif isinstance(phase, int):
            ops += ["compact"] * phase
        else:
            ops.append(phase)
    return (
        AlpuConfig(
            kind=kind,
            total_cells=total_cells,
            block_size=block_size,
            compaction_reach=reach,
        ),
        ops,
    )


def run_lockstep(config: AlpuConfig, ops) -> None:
    """Drive the packed ALPU, the per-cell ALPU and the reference list.

    The reference list resolves each request at the moment the ALPU
    emits its response, so a held failure sees the entries inserted
    while it waited.
    """
    kind = config.kind
    flat = Alpu(config)
    oracle = PerCellAlpu(config)
    reference = ReferenceMatchList()
    unresolved: List[MatchRequest] = []
    next_tag = iter(range(1 << 16))
    flat_results: List[Response] = []
    oracle_results: List[Response] = []

    def check(responses) -> None:
        for response in responses:
            if isinstance(response, StartAcknowledge):
                assert response.free_entries == config.total_cells - len(reference)
                continue
            expected, _ = reference.match(unresolved.pop(0))
            if expected is None:
                assert response == MatchFailure()
            else:
                assert response == MatchSuccess(tag=expected.tag)

    for op in ops:
        if isinstance(op, MatchOp):
            request = request_for(op, kind)
            unresolved.append(request)
            responses = flat.present_header(request)
            oracle_responses = oracle.present_header(request)
        elif isinstance(op, InsertOp):
            if flat.free_entries == 0:
                continue
            bits, mask = FMT.pack_receive(op.context, op.source, op.tag)
            command = Insert(bits, mask, next(next_tag))
            if flat.mode is AlpuMode.INSERT:
                reference.append(stored_entry(bits, mask, command.tag, kind))
            responses = flat.submit(command)
            oracle_responses = oracle.submit(command)
        elif op == "compact":
            assert flat.compact_step() == oracle.compact_step()
            responses = oracle_responses = []
        else:
            command = {"start": StartInsert(), "stop": StopInsert(), "reset": Reset()}[op]
            if op == "reset":
                reference.clear()
            responses = flat.submit(command)
            oracle_responses = oracle.submit(command)
        assert responses == oracle_responses
        flat_results += responses
        oracle_results += oracle_responses
        check(responses)
        assert flat_cells(flat) == oracle.cells()
        assert flat.entries() == oracle.entries() == reference.snapshot()
        assert flat.occupancy == oracle.occupancy == len(reference)
        assert flat.has_held_request == oracle.has_held_request == bool(unresolved)
        assert flat.mode is oracle.mode
        assert dataclasses.asdict(flat.stats) == dataclasses.asdict(oracle.stats)
    assert flat_results == oracle_results


@pytest.mark.parametrize("kind", list(CellKind))
@settings(max_examples=120, derandomize=True)
@given(data=st.data())
def test_flat_alpu_equals_per_cell_model(kind, data):
    """Fixed-seed tier-1 slice of the lockstep, 120 cases per kind."""
    run_lockstep(*data.draw(lockstep_cases(kind)))


@pytest.mark.slow
@settings(max_examples=1500)
@given(case=lockstep_cases())
def test_flat_alpu_equals_per_cell_model_full(case):
    """The full lockstep search (CI's slow job)."""
    run_lockstep(*case)
