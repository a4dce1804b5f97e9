"""``software_search`` charges its walk in one ``read_lines`` call, exactly.

Twin NICs hold the same queue.  On one, the backend's ``software_search``
runs; on the other, an oracle walks the same candidates the historical
way, a ``touch`` per visited entry interleaved with the compare.  The
charged picoseconds, the matched entry, the traversal counters and
histogram, and the processor's stall must agree after every search, so
the cache and DRAM state carries over identically from one search to the
next.

Two queues run the same searches.  One holds only exact headers, so
under FIFO an exact request takes the flat path (``bits.index`` plus a
slice of ``addrs``); the other also holds masked posted entries (of
another context, so they never match), which sends every request
through the entry-by-entry ternary loop.
"""

import dataclasses

import pytest

from repro.core.match import ANY_SOURCE, ANY_TAG, MatchRequest
from repro.network.fabric import Fabric
from repro.nic.nic import Nic, NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.queues import EntryKind
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.fifo import Fifo

DISCIPLINES = {
    "fifo": QdiscConfig(),
    "sharded": QdiscConfig(discipline="sharded", shard_key="source"),
}
#: deep enough to overflow the NIC's L1 (256 usable lines at 128-byte
#: entry spacing), so walks miss, evict and conflict on DRAM rows
DEPTH = 400
SOURCES = 4
#: the oldest 50 queue positions start in the mirrored prefix (in the
#: exact-only queue, entries 0..49)
MIRRORED = DEPTH // 8


def build(qdisc, masked):
    engine = Engine(metrics=MetricsRegistry())
    config = dataclasses.replace(NicConfig.baseline(), qdisc=qdisc)
    nic = Nic(engine, 1, Fabric(engine, 2), Fifo(name="completions"), config)
    fmt = nic.firmware.fmt
    queue = nic.unexpected_q
    for i in range(DEPTH):
        entry = queue.allocate_entry(
            EntryKind.UNEXPECTED_EAGER,
            bits=fmt.pack(0, i % SOURCES, i),
            mask=0,
            size=0,
        )
        queue.append(entry)
        if masked and i % 40 == 7:
            bits, mask = fmt.pack_receive(1, ANY_SOURCE, ANY_TAG)
            queue.append(
                queue.allocate_entry(EntryKind.POSTED_RECV, bits=bits, mask=mask, size=0)
            )
    # an ALPU-mirrored prefix for the suffix-only (MATCH FAILURE) walks
    queue.mark_alpu_mirrored(queue.peek_software_suffix(MIRRORED))
    return engine, nic


def run_search(nic, request, suffix_only):
    """Drive ``software_search`` to completion outside the engine."""
    backend = nic.firmware.backend
    search = backend.software_search(
        nic.unexpected_q, request, suffix_only=suffix_only
    )
    charged = 0
    try:
        while True:
            charged += next(search)
    except StopIteration as stop:
        return stop.value, charged


def oracle_search(nic, request, suffix_only):
    """The per-entry walk: one ``touch`` per visit, then retire."""
    fw = nic.firmware
    proc, queue = fw.proc, nic.unexpected_q
    charged, visited, found = 0, 0, None
    for entry in queue.search_candidates(request, suffix_only=suffix_only):
        charged += proc.touch(entry.addr, 64)
        visited += 1
        if entry.matches(request):
            found = entry
            break
    charged += proc.compute(visited * fw.cost.entry_compare_cycles)
    fw.record_traversal(visited)
    if found is not None:
        queue.remove(found)
        charged += proc.compute(fw.cost.dequeue_cycles)
        charged += proc.touch(found.addr + 64, 64, write=True)
    return found, charged


def observed(engine, nic, found, charged):
    fw = nic.firmware
    return {
        "found": None if found is None else (found.addr, found.bits),
        "charged_ps": charged,
        "entries_traversed": fw.entries_traversed,
        "stall_ps": fw.proc.stall_ps,
        "busy_ps": fw.proc.busy_ps,
        "depth": len(nic.unexpected_q),
        # traversal histogram, cache/DRAM counters, queue gauges
        "metrics": engine.metrics.snapshot(),
    }


def receive(fmt, source, tag):
    return MatchRequest(*fmt.pack_receive(0, source, tag))


#: (name, request, suffix_only, hits) per search, run in order on one
#: queue; entry i holds (source i % SOURCES, tag i)
def searches(fmt):
    tail = DEPTH - 1

    def exact(i):
        return receive(fmt, i % SOURCES, i)

    return [
        ("miss walks the whole queue", receive(fmt, 1, DEPTH + 7), False, False),
        ("hit at the head", exact(0), False, True),
        ("hit at the tail", exact(tail), False, True),
        ("hit mid-queue", exact(DEPTH // 2 + 2), False, True),
        ("wildcard source", receive(fmt, ANY_SOURCE, DEPTH - 3), False, True),
        ("wildcard tag: a source's oldest", receive(fmt, 3, ANY_TAG), False, True),
        ("suffix-only miss", receive(fmt, 0, DEPTH + 9), True, False),
        ("suffix-only skips a mirrored entry", exact(5), True, False),
        ("suffix-only hit at the suffix head", exact(MIRRORED), True, True),
        ("suffix-only hit mid-suffix", exact(DEPTH // 2 + 1), True, True),
        ("suffix-only hit at the tail", exact(DEPTH - 2), True, True),
        ("hit in the mirrored prefix", exact(5), False, True),
        ("second miss, over a warm cache", receive(fmt, 1, DEPTH + 7), False, False),
    ]


@pytest.mark.parametrize("masked", [False, True], ids=["exact", "masked"])
@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
def test_one_call_walk_equals_per_entry_touches(discipline, masked):
    engine_a, walked = build(DISCIPLINES[discipline], masked)
    engine_b, oracle = build(DISCIPLINES[discipline], masked)
    assert (walked.unexpected_q.masked > 0) == masked
    for name, request, suffix_only, hits in searches(walked.firmware.fmt):
        found_a, charged_a = run_search(walked, request, suffix_only)
        found_b, charged_b = oracle_search(oracle, request, suffix_only)
        assert observed(engine_a, walked, found_a, charged_a) == observed(
            engine_b, oracle, found_b, charged_b
        ), name
        assert (found_a is not None) == hits, name
        assert walked.unexpected_q.alpu_count == oracle.unexpected_q.alpu_count
    # the walks really went to DRAM
    assert walked.firmware.proc.memory.dram.page_conflicts > 0
