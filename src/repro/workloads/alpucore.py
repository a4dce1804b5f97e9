"""The ALPU core-op microbenchmark (the vectorized-core stress point).

The Figure 5/6 system benchmarks measure whole-NIC behaviour, so the
Python cost of the ALPU *core model* -- the compare plane, priority
encoder and shift/compaction flow control of Figures 2-3 -- is diluted
by firmware, MPI-library and fabric events.  This workload isolates the
core: one driver process performs the paper's Table I protocol against a
single :class:`~repro.nic.alpu_device.AlpuDevice` as fast as the bus
allows, so nearly every simulated event carries a core operation:

* **fill**: ``START INSERT``, ``total_cells`` ``INSERT`` commands (each
  triggering insert-mode compaction toward the oldest end), ``STOP
  INSERT``;
* **drain**: one header per stored entry, oldest first, so every match
  deletes at the *far* end and shifts the full occupied chain (the
  worst-case delete of Section III-B), plus one guaranteed
  ``MATCH FAILURE`` probe per ``miss_every`` hits;
* every response is read back over the bus (reads cost a full round
  trip, Section V-D).

Simulated latencies are pure protocol timing -- bus transactions plus
pipeline occupancy from :class:`~repro.core.pipeline.AlpuTimingModel` --
and are pinned in ``tests/workloads/pinned_grid.json`` exactly like
the system points.  Wall-clock events/sec, in contrast, tracks the
Python cost of the core model almost 1:1, which makes this the point
where the SWAR layout of :mod:`repro.core.alpu` is visible
undiluted: the historical before/after table in EXPERIMENTS.md is
anchored here.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import List, Optional

from repro.core import AlpuConfig, CellKind
from repro.core.commands import (
    Insert,
    MatchFailure,
    MatchSuccess,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.core.match import ANY_TAG, DEFAULT_FORMAT, MatchRequest
from repro.nic.alpu_device import AlpuDevice
from repro.sim.engine import Engine
from repro.sim.process import Process, delay
from repro.sim.units import ps_to_ns


@dataclasses.dataclass(frozen=True)
class AlpuCoreParams:
    """One core-stress point."""

    #: ALPU geometry under test
    cells: int = 1024
    block_size: int = 1024
    #: every k-th drain step also presents a header that matches nothing
    miss_every: int = 8
    #: every k-th insert stores a wildcard-tag entry (mask bits exercise
    #: the ternary compare plane)
    wildcard_every: int = 16
    #: timed fill+drain rounds / untimed leading rounds
    iterations: int = 4
    warmup: int = 1

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.miss_every < 1 or self.wildcard_every < 1:
            raise ValueError(f"invalid cadence in {self}")
        if self.iterations < 1 or self.warmup < 0:
            raise ValueError(f"invalid parameters: {self}")


@dataclasses.dataclass
class AlpuCoreResult:
    """Samples for one core-stress point."""

    params: AlpuCoreParams
    #: simulated duration of each timed fill+drain round
    latencies_ns: List[float]
    #: core operations performed over the timed rounds (inserts + headers)
    ops: int

    @property
    def median_ns(self) -> float:
        return statistics.median(self.latencies_ns)


def run_alpucore(
    params: AlpuCoreParams, *, telemetry=None
) -> AlpuCoreResult:
    """Run the Table I protocol loop against one posted-receive ALPU."""
    if telemetry is not None:
        engine = Engine(
            tracer=telemetry.tracer,
            metrics=telemetry.metrics,
            profiler=getattr(telemetry, "profiler", None),
        )
    else:
        engine = Engine()
    fmt = DEFAULT_FORMAT
    config = AlpuConfig(
        kind=CellKind.POSTED_RECEIVE,
        total_cells=params.cells,
        block_size=params.block_size,
    )
    device = AlpuDevice(engine, "alpucore", config)
    tag_mask = (1 << config.tag_width) - 1
    source_span = 1 << fmt.source_bits
    tag_span = 1 << fmt.tag_bits
    samples: List[float] = []
    ops = 0
    #: a header no stored entry can match: sources only ever cover
    #: ``cells % source_span`` distinct values paired with matching tag
    #: lanes, so crossing the pairing never collides
    miss_bits = fmt.pack(context=1, source=0, tag=1)

    def read_response(expect):
        """Poll the result FIFO (reads are charged even when empty)."""
        while True:
            cost, response = device.bus_read_result()
            yield delay(cost)
            if response is not None:
                if not isinstance(response, expect):
                    raise RuntimeError(
                        f"protocol violation: {response!r}, wanted {expect}"
                    )
                return response

    def driver():
        nonlocal ops
        total_rounds = params.warmup + params.iterations
        for round_index in range(total_rounds):
            timed = round_index >= params.warmup
            round_start = engine.now
            round_ops = 0
            # ---- fill: START INSERT, cells x INSERT, STOP INSERT
            yield delay(device.bus_write_command(StartInsert()))
            yield from read_response(StartAcknowledge)
            stored = []
            for index in range(params.cells):
                source = index % source_span
                if index % params.wildcard_every == 0:
                    bits, mask = fmt.pack_receive(
                        context=0, source=source, tag=ANY_TAG
                    )
                else:
                    bits = fmt.pack(
                        context=0, source=source, tag=index % tag_span
                    )
                    mask = 0
                stored.append((bits, index % tag_span))
                yield delay(
                    device.bus_write_command(
                        Insert(match_bits=bits, mask_bits=mask,
                               tag=index & tag_mask)
                    )
                )
                round_ops += 1
            yield delay(device.bus_write_command(StopInsert()))
            # ---- drain: oldest-first headers force full-chain shifts
            for index, (bits, tag) in enumerate(stored):
                if index % params.miss_every == 0:
                    device.hw_push_header(MatchRequest(bits=miss_bits))
                    yield from read_response(MatchFailure)
                    round_ops += 1
                device.hw_push_header(MatchRequest(bits=bits))
                yield from read_response(MatchSuccess)
                round_ops += 1
            if timed:
                samples.append(ps_to_ns(engine.now - round_start))
                ops += round_ops
        return None

    Process(engine, driver(), name="alpucore.driver")
    engine.run()
    return AlpuCoreResult(params=params, latencies_ns=samples, ops=ops)
