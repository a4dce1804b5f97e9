"""The pluggable queue-discipline layer and admission control.

Three layers of assurance:

* unit tests of the sharded discipline's search-order contract directly
  against a :class:`NicQueue` (merged age order, wildcard fallbacks);
* a hypothesis property run interleaving append/remove/degrade under
  every registered discipline, pinning the flat store, the ALPU prefix,
  the depth gauge, and candidate order against a model list;
* the full differential gate: generated traffic through a sharded NIC
  must produce the matching oracle's exact pairings (both shard keys,
  list and ALPU backends).

Plus the admission-control protocol: bounded unexpected queues under a
flood, NACK_BUSY liveness (retry budgets never exhausted by a full
receiver), and the drop policy's honest retry consumption.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.match import ANY_SOURCE, ANY_TAG, MatchFormat, MatchRequest
from repro.memory.layout import AddressAllocator
from repro.mpi.world import MpiWorld, WorldConfig
from repro.nic.nic import NicConfig
from repro.nic.qdisc import (
    DISCIPLINES,
    AdmissionControl,
    QdiscConfig,
    create_discipline,
    shard_mask,
)
from repro.nic.queues import EntryKind, NicQueue
from repro.nic.reliability import ReliabilityConfig, RetryExhaustedError

from tests.nic.traffic import TrafficCase, check_backend_against_oracle

FMT = MatchFormat()


def make_queue(config: QdiscConfig = QdiscConfig()) -> NicQueue:
    return NicQueue(
        "q",
        AddressAllocator(base=0x1000),
        discipline=create_discipline(config, FMT),
    )


def append_entry(queue, *, source, tag, context=0):
    bits, mask = FMT.pack_receive(context, source, tag)
    entry = queue.allocate_entry(
        EntryKind.POSTED_RECV, bits=bits, mask=mask, size=0
    )
    queue.append(entry)
    return entry


def header(*, source, tag, context=0) -> MatchRequest:
    return MatchRequest(bits=FMT.pack(context, source, tag), mask=0)


# ------------------------------------------------------------- config
def test_config_validation():
    QdiscConfig()  # defaults are valid
    QdiscConfig(discipline="sharded", shard_key="flow",
                max_unexpected=64, admission_policy="nack")
    with pytest.raises(ValueError, match="unknown discipline"):
        QdiscConfig(discipline="lifo")
    with pytest.raises(ValueError, match="shard_key"):
        QdiscConfig(shard_key="tag")
    with pytest.raises(ValueError, match="max_unexpected"):
        QdiscConfig(max_unexpected=-1)
    with pytest.raises(ValueError, match="admission_policy"):
        QdiscConfig(admission_policy="reject")


def test_admission_requires_reliability():
    with pytest.raises(ValueError, match="reliability"):
        dataclasses.replace(
            NicConfig.baseline(), qdisc=QdiscConfig(max_unexpected=8)
        )
    # fine with the layer on
    dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(max_unexpected=8),
        reliability=ReliabilityConfig(enabled=True),
    )


def test_shard_mask_fields():
    source = shard_mask(QdiscConfig(shard_key="source"), FMT)
    flow = shard_mask(QdiscConfig(shard_key="flow"), FMT)
    assert flow == FMT.full_mask
    assert source == FMT.full_mask & ~FMT.tag_field_mask
    assert source & FMT.tag_field_mask == 0


# ------------------------------------------- sharded search order
def fifo_matches(queue, request):
    return [e for e in queue.entries if e.matches(request)]


def test_sharded_concrete_search_preserves_global_age_order():
    queue = make_queue(QdiscConfig(discipline="sharded", shard_key="source"))
    # interleave two sources and a wildcard that must merge between them
    a1 = append_entry(queue, source=1, tag=5)
    b1 = append_entry(queue, source=2, tag=5)
    w = append_entry(queue, source=ANY_SOURCE, tag=ANY_TAG)
    a2 = append_entry(queue, source=1, tag=6)
    request = header(source=1, tag=5)
    got = [e for e in queue.search_candidates(request)]
    # own shard {a1, a2} merged with the wildcard shard {w}, oldest first
    assert got == [a1, w, a2]
    assert b1 not in got
    # first *matching* candidate is what FIFO would have matched
    first = next(e for e in got if e.matches(request))
    assert first is fifo_matches(queue, request)[0] is a1


def test_sharded_wildcard_request_falls_back_to_full_walk():
    queue = make_queue(QdiscConfig(discipline="sharded", shard_key="source"))
    entries = [append_entry(queue, source=s, tag=3) for s in (1, 2, 3)]
    request = MatchRequest(*FMT.pack_receive(0, ANY_SOURCE, 3))
    assert list(queue.search_candidates(request)) == entries


def test_sharded_flow_key_separates_tags():
    queue = make_queue(QdiscConfig(discipline="sharded", shard_key="flow"))
    e_t1 = append_entry(queue, source=1, tag=1)
    e_t2 = append_entry(queue, source=1, tag=2)
    got = list(queue.search_candidates(header(source=1, tag=2)))
    assert got == [e_t2] and e_t1 not in got
    # ...but an ANY_TAG request wildcards part of the flow key: full walk
    request = MatchRequest(*FMT.pack_receive(0, 1, ANY_TAG))
    assert list(queue.search_candidates(request)) == [e_t1, e_t2]


def test_sharded_suffix_only_skips_alpu_prefix():
    queue = make_queue(QdiscConfig(discipline="sharded", shard_key="source"))
    entries = [append_entry(queue, source=1, tag=t) for t in range(4)]
    queue.alpu_count = 2
    got = list(queue.search_candidates(header(source=1, tag=0), suffix_only=True))
    assert got == entries[2:]


def test_sharded_removal_updates_shards():
    queue = make_queue(QdiscConfig(discipline="sharded", shard_key="source"))
    a = append_entry(queue, source=1, tag=1)
    w = append_entry(queue, source=ANY_SOURCE, tag=1)
    b = append_entry(queue, source=1, tag=2)
    queue.remove(a)
    assert list(queue.search_candidates(header(source=1, tag=2))) == [w, b]
    queue.remove(w)
    assert list(queue.search_candidates(header(source=1, tag=2))) == [b]


# ------------------------------------------------ the property run
_ops = st.lists(
    st.one_of(
        # (op, source, tag): append with source in 1..3, tag in 0..2,
        # occasionally wildcard
        st.tuples(st.just("append"), st.integers(1, 3), st.integers(0, 2)),
        st.tuples(st.just("append"), st.just(ANY_SOURCE), st.just(ANY_TAG)),
        # remove the i-th (mod len) live entry
        st.tuples(st.just("remove"), st.integers(0, 31), st.just(0)),
        # extend the mirrored prefix by up to 2 entries
        st.tuples(st.just("mirror"), st.integers(1, 2), st.just(0)),
        # degrade: drop the whole mirrored prefix back to software
        st.tuples(st.just("degrade"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


@pytest.mark.parametrize(
    "config",
    [
        QdiscConfig(),
        QdiscConfig(discipline="sharded", shard_key="source"),
        QdiscConfig(discipline="sharded", shard_key="flow"),
    ],
    ids=["fifo", "sharded-source", "sharded-flow"],
)
@settings(max_examples=40)
@given(ops=_ops)
def test_queue_invariants_under_churn(config, ops):
    """Flat lists, mirrored prefix, depth, high-water mark and candidate
    order vs a model list plus a model prefix count."""
    assert config.discipline in DISCIPLINES
    queue = make_queue(config)
    model = []
    mirrored = 0
    peak = 0
    for op, x, y in ops:
        if op == "append":
            model.append(append_entry(queue, source=x, tag=y))
            peak = max(peak, len(model))
        elif op == "remove" and model:
            pos = x % len(model)
            queue.remove(model.pop(pos))
            mirrored -= pos < mirrored
        elif op == "mirror":
            batch = queue.peek_software_suffix(x)
            assert batch == model[mirrored:mirrored + x]
            queue.mark_alpu_mirrored(batch)
            mirrored += len(batch)
        elif op == "degrade":
            queue.alpu_count = 0
            mirrored = 0
            assert queue.peek_software_suffix(len(model) + 1) == model

        # the store is the model list, in order, with its flat columns
        assert queue.entries == model
        assert queue.bits == [e.bits for e in model]
        assert queue.addrs == [e.addr for e in model]
        assert queue.masked == sum(1 for e in model if e.mask)
        assert len(queue) == len(model)
        assert queue.max_length == peak
        # the mirrored prefix is the first `mirrored` model entries
        assert queue.alpu_count == mirrored
        assert queue.iter_fifo(suffix_only=True) == model[mirrored:]
        for k in (0, 1, 3):
            assert queue.peek_software_suffix(k) == model[mirrored:mirrored + k]
        # discipline candidates: same matching entries, same relative
        # order as a plain FIFO walk, for concrete and wildcard requests,
        # over the whole queue and over the software suffix only
        order = {e.uid: i for i, e in enumerate(model)}
        for suffix_only, walked in ((False, model), (True, model[mirrored:])):
            for request in (
                header(source=1, tag=0),
                header(source=2, tag=1),
                MatchRequest(*FMT.pack_receive(0, ANY_SOURCE, 1)),
            ):
                visited = list(
                    queue.search_candidates(request, suffix_only=suffix_only)
                )
                assert [e for e in visited if e.matches(request)] == [
                    e for e in walked if e.matches(request)
                ]
                # candidates are a subsequence of the walked FIFO order
                ranks = [order[e.uid] for e in visited]
                assert ranks == sorted(ranks)
                if suffix_only:
                    assert all(rank >= mirrored for rank in ranks)


# --------------------------------------------- the differential gate
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


def _sharded_nic(backend: str, shard_key: str) -> NicConfig:
    qdisc = QdiscConfig(discipline="sharded", shard_key=shard_key)
    if backend == "alpu":
        # tiny geometry so cases overflow into the software-suffix path,
        # where the discipline actually shapes the search
        nic = NicConfig.with_alpu(total_cells=16, block_size=4)
    else:
        nic = NicConfig.baseline()
    return dataclasses.replace(nic, qdisc=qdisc)


@pytest.mark.parametrize("backend", ["list", "alpu"])
@pytest.mark.parametrize("shard_key", ["source", "flow"])
@settings(max_examples=10)
@given(case=traffic_cases)
def test_sharded_discipline_matches_oracle(backend, shard_key, case):
    check_backend_against_oracle(case, _sharded_nic(backend, shard_key))


@pytest.mark.parametrize("backend", ["list", "alpu"])
@pytest.mark.parametrize("shard_key", ["source", "flow"])
def test_sharded_discipline_on_adversarial_case(backend, shard_key):
    case = TrafficCase(
        pre_recvs=((ANY_SOURCE, ANY_TAG, 0), (0, 2, 0), (0, 2, 1)),
        msgs=((2, 0), (2, 0), (2, 1), (3, 0), (1, 1)),
        post_recvs=((0, ANY_TAG, 1), (ANY_SOURCE, 3, 0), (0, 1, 0)),
    )
    check_backend_against_oracle(case, _sharded_nic(backend, shard_key))


# --------------------------------------------------- admission control
def _flood_world(policy: str, *, threshold=8, messages=64, burst=32):
    """Rank 0 floods rank 1, which posts its receives only at the end."""
    nic = dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(
            discipline="sharded",
            max_unexpected=threshold,
            admission_policy=policy,
        ),
        reliability=ReliabilityConfig(enabled=True),
    )

    def flooder(mpi):
        yield from mpi.init()
        remaining = messages
        while remaining:
            chunk = min(burst, remaining)
            sends = []
            for _ in range(chunk):
                sends.append((yield from mpi.isend(1, 7, 0)))
            yield from mpi.waitall(sends)
            remaining -= chunk
        yield from mpi.finalize()

    def sink(mpi):
        yield from mpi.init()
        # wait out the flood's front before posting anything, so the
        # unexpected queue (not the posted queue) takes the pressure
        yield from mpi.recv(0, 7, 0)
        for _ in range(messages - 1):
            yield from mpi.recv(0, 7, 0)
        yield from mpi.finalize()

    world = MpiWorld(WorldConfig(num_ranks=2, nic=nic))
    return world, flooder, sink


@pytest.mark.parametrize("policy", ["drop", "nack"])
def test_admission_bounds_unexpected_queue(policy):
    threshold = 8
    world, flooder, sink = _flood_world(policy, threshold=threshold)
    world.run({0: flooder, 1: sink}, deadline_us=500_000)
    receiver = world.nics[1]
    assert receiver.admission is not None
    assert receiver.admission.refused > 0
    assert receiver.admission.threshold == threshold
    # held + backlog share the budget, so the queue itself may overshoot
    # only by one reorder-flush run (< threshold)
    assert receiver.unexpected_q.max_length <= 2 * threshold
    # every message was eventually delivered and matched
    assert len(receiver.unexpected_q) == 0


def test_nack_policy_preserves_retry_budget():
    """NACK_BUSY is liveness proof: a full receiver must never exhaust a
    sender's retries, no matter how long the flood outlasts the budget."""
    world, flooder, sink = _flood_world("nack", threshold=4, messages=96)
    world.run({0: flooder, 1: sink}, deadline_us=500_000)
    sender = world.nics[0]
    assert sender.reliability.busy_deferrals > 0
    # refused-then-retried packets never count against max_retries
    for record in sender.reliability._unacked.values():
        assert record.retries <= sender.config.reliability.max_retries


def test_drop_policy_spends_retry_budget():
    """The drop policy recovers via sender timeouts, which *do* consume
    retries -- a flood that outlasts the budget kills the sender."""
    world, flooder, sink = _flood_world(
        "drop", threshold=2, messages=256, burst=256
    )
    with pytest.raises(RetryExhaustedError):
        world.run({0: flooder, 1: sink}, deadline_us=500_000)


def test_admission_head_exemption_prevents_livelock():
    """The in-order head must stay admissible while the reorder buffer
    holds its successors (the `held == threshold` livelock)."""
    world, flooder, sink = _flood_world("nack", threshold=4, messages=64,
                                        burst=64)
    # completing at all is the assertion: without the head exemption this
    # configuration wedges with an empty queue and a full reorder buffer
    world.run({0: flooder, 1: sink}, deadline_us=500_000)
    receiver = world.nics[1]
    assert len(receiver.unexpected_q) == 0
    assert receiver.admission.refused > 0


def test_admission_counters_and_occupancy():
    nic = dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(max_unexpected=4, admission_policy="drop"),
        reliability=ReliabilityConfig(enabled=True),
    )
    world = MpiWorld(WorldConfig(num_ranks=2, nic=nic))
    receiver = world.nics[1]
    admission = receiver.admission
    assert isinstance(admission, AdmissionControl)
    assert admission.policy == "drop" and admission.threshold == 4
    # no admission object without the feature
    plain = MpiWorld(WorldConfig(num_ranks=2, nic=NicConfig.baseline()))
    assert plain.nics[0].admission is None
