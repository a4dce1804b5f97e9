"""Declarative grid sweeps over the paper's benchmarks.

One :class:`SweepSpec` names a benchmark, the receiver presets, and the
parameter axes; :func:`run_sweep` expands the grid (preset-major, then
axis-major -- the exact nesting order of the old hand-written loops) and
runs every point, either serially or fanned out across worker processes.
Every benchmark's points come back as the same :class:`SweepRow`: the
point's preset, parameters and result columns beside its run-report
document (:func:`repro.analysis.report.run_report`, the same document a
single run's report is), built from a :class:`~repro.obs.telemetry.
Telemetry` that turns on only the collectors the spec asks for.
:func:`dump_telemetry` writes a sweep's rows as one JSON dump.

Every point is one self-contained simulation, so points are
embarrassingly parallel *and* deterministic: the same spec produces
bit-identical rows whether ``workers`` is ``None`` or 8 (pinned by
test).

The receiver presets (:data:`PRESETS` / :func:`nic_preset`) live beside
the runner, in :mod:`repro.workloads.runner`; they are re-exported here.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.telemetry import Telemetry
from repro.workloads.alltoall import AlltoallParams, run_alltoall
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.multijob import MultijobParams, run_multijob
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads.runner import PRESETS, nic_preset
from repro.workloads.storm import StormParams, run_storm
from repro.workloads.unexpected import UnexpectedParams, run_unexpected

if TYPE_CHECKING:
    import multiprocessing.context

__all__ = [
    "BENCHMARKS",
    "PRESETS",
    "SweepRow",
    "SweepSpec",
    "dump_telemetry",
    "nic_preset",
    "run_point",
    "run_sweep",
    "telemetry_report",
]


@dataclasses.dataclass
class SweepRow:
    """One grid point's result, for every benchmark."""

    preset: str
    #: the point's full params kwargs (axes plus fixed)
    params: Dict[str, object]
    #: the benchmark's headline median (see :data:`BENCHMARKS`)
    latency_ns: float
    #: the benchmark's extra result columns (``{}`` when it has none)
    extra: Dict[str, object]
    #: the point's run-report document
    #: (:func:`repro.analysis.report.run_report`; ``None`` when the spec
    #: turns no collector on), rendered by
    #: ``python -m repro.analysis.report --input DUMP --row N``
    report: Optional[Dict[str, object]] = None


@dataclasses.dataclass(frozen=True)
class _Benchmark:
    """How one workload plugs into the sweep executor and the report CLI."""

    params_cls: type
    runner: Callable
    #: optional extractor of the row's ``extra`` columns from the result
    row_extra: Optional[Callable] = None


#: the one name-to-workload table: :func:`run_point`, the pinned grid and
#: the run report CLI all dispatch through it.  Every row's
#: ``latency_ns`` is its runner's ``median_ns``: message
#: latency for preposted/unexpected/halo, the master's wildcard-receive
#: sojourn for storm, rank 0's per-round completion for alltoall, and
#: job A's ping-pong round trip beside the hog for multijob
BENCHMARKS: Dict[str, _Benchmark] = {
    "preposted": _Benchmark(params_cls=PrepostedParams, runner=run_preposted),
    "unexpected": _Benchmark(params_cls=UnexpectedParams, runner=run_unexpected),
    "halo": _Benchmark(params_cls=HaloParams, runner=run_halo),
    "storm": _Benchmark(
        params_cls=StormParams,
        runner=run_storm,
        row_extra=lambda result: {
            "max_depth": result.max_unexpected_depth,
            "refused": result.refused,
            "retransmits": result.retransmits,
        },
    ),
    "alltoall": _Benchmark(params_cls=AlltoallParams, runner=run_alltoall),
    "multijob": _Benchmark(
        params_cls=MultijobParams,
        runner=run_multijob,
        row_extra=lambda result: {
            "max_depth": result.max_unexpected_depth,
            "refused": result.refused,
        },
    ),
}


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative benchmark grid.

    ``axes`` are ``(name, values)`` pairs swept with :func:`itertools.product`
    (first axis outermost), inside a preset-major outer loop; ``fixed``
    are ``(name, value)`` pairs held constant.  Every name must be a
    field of the benchmark's params class and appear only once across
    both; a bad grid is rejected here, not when a point runs.
    """

    benchmark: str
    presets: Tuple[str, ...]
    axes: Tuple[Tuple[str, Tuple], ...]
    fixed: Tuple[Tuple[str, object], ...] = ()
    #: the metrics snapshot, the windowed timeline and the default
    #: watchdog battery: the report's ``metrics``, ``timeline`` and
    #: ``health`` sections
    telemetry: bool = False
    #: record the instrumentation stream (``Telemetry(tracing=True)``),
    #: folded into the report's ``attribution`` and ``link_budgets``
    lifecycle: bool = False
    #: fabric observability: per-hop records (with
    #: ``lifecycle=True``), per-link queue/wait series (with
    #: ``telemetry=True``), and the report's ``fabric`` snapshot
    fabric: bool = False
    block_size: int = 16
    #: seeded fabric fault injection; setting it also enables the NIC
    #: reliability layer on every point (retransmission under loss)
    faults: Optional[FaultConfig] = None
    #: queue-discipline overlay applied to every point's NIC (``None``
    #: keeps each preset's default FIFO); admission control
    #: (``max_unexpected > 0``) also enables the reliability layer,
    #: which carries the refusal protocol
    qdisc: Optional[QdiscConfig] = None

    def __post_init__(self) -> None:
        bench = BENCHMARKS.get(self.benchmark)
        if bench is None:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r}; "
                f"expected one of {sorted(BENCHMARKS)}"
            )
        fields = {f.name for f in dataclasses.fields(bench.params_cls)}
        names = [name for name, _ in self.axes] + [name for name, _ in self.fixed]
        unknown = sorted(set(names) - fields)
        if unknown:
            raise ValueError(
                f"{self.benchmark} has no parameter(s) {unknown}; "
                f"expected names from {sorted(fields)}"
            )
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(
                f"parameter(s) {repeated} given more than once across "
                "axes and fixed"
            )

    # ---------------------------------------------------------- convenience
    @staticmethod
    def preposted(
        presets: Sequence[str],
        queue_lengths: Iterable[int],
        fractions: Iterable[float],
        *,
        message_size: int = 0,
        iterations: int = 12,
        warmup: int = 3,
        telemetry: bool = False,
        lifecycle: bool = False,
        fabric: bool = False,
    ) -> "SweepSpec":
        """The Figure 5 grid: preset x queue length x traverse fraction."""
        return SweepSpec(
            benchmark="preposted",
            presets=tuple(presets),
            axes=(
                ("queue_length", tuple(queue_lengths)),
                ("traverse_fraction", tuple(fractions)),
            ),
            fixed=(
                ("message_size", message_size),
                ("iterations", iterations),
                ("warmup", warmup),
            ),
            telemetry=telemetry,
            lifecycle=lifecycle,
            fabric=fabric,
        )

    @staticmethod
    def unexpected(
        presets: Sequence[str],
        queue_lengths: Iterable[int],
        *,
        message_size: int = 0,
        iterations: int = 12,
        warmup: int = 3,
        telemetry: bool = False,
        lifecycle: bool = False,
        fabric: bool = False,
    ) -> "SweepSpec":
        """The Figure 6 grid: preset x queue length."""
        return SweepSpec(
            benchmark="unexpected",
            presets=tuple(presets),
            axes=(("queue_length", tuple(queue_lengths)),),
            fixed=(
                ("message_size", message_size),
                ("iterations", iterations),
                ("warmup", warmup),
            ),
            telemetry=telemetry,
            lifecycle=lifecycle,
            fabric=fabric,
        )

    @staticmethod
    def halo(
        presets: Sequence[str],
        ranks: Iterable[int],
        topologies: Iterable[str] = ("crossbar", "torus3d"),
        *,
        message_size: int = 512,
        iterations: int = 3,
        warmup: int = 1,
        telemetry: bool = False,
        lifecycle: bool = False,
        fabric: bool = False,
    ) -> "SweepSpec":
        """The topology-comparison grid: preset x ranks x topology."""
        return SweepSpec(
            benchmark="halo",
            presets=tuple(presets),
            axes=(
                ("ranks", tuple(ranks)),
                ("topology", tuple(topologies)),
            ),
            fixed=(
                ("message_size", message_size),
                ("iterations", iterations),
                ("warmup", warmup),
            ),
            telemetry=telemetry,
            lifecycle=lifecycle,
            fabric=fabric,
        )

    # --------------------------------------------------------------- points
    def points(self) -> List[Tuple[str, Dict[str, object]]]:
        """Expand the grid into ``(preset, params kwargs)`` pairs.

        Deterministic legacy order: presets outermost, then the axes in
        declaration order via :func:`itertools.product`.
        """
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        points = []
        for preset in self.presets:
            for combo in itertools.product(*value_lists):
                kwargs = dict(self.fixed)
                kwargs.update(zip(names, combo))
                points.append((preset, kwargs))
        return points


def run_point(
    spec: SweepSpec,
    preset: str,
    params: Dict[str, object],
    *,
    nic: Optional[NicConfig] = None,
) -> SweepRow:
    """Run one grid point and shape the result into its row."""
    bench = BENCHMARKS[spec.benchmark]
    if nic is None:
        nic = nic_preset(preset, block_size=spec.block_size)
    overrides: Dict[str, object] = {}
    if spec.qdisc is not None:
        overrides["qdisc"] = spec.qdisc
    needs_reliability = spec.faults is not None or (
        spec.qdisc is not None and spec.qdisc.max_unexpected > 0
    )
    if needs_reliability and not nic.reliability.enabled:
        # lossy wire or admission control: turn on the link-level
        # retransmission layer (done here, not on the shared preset NIC,
        # so serial/parallel and fault/no-fault sweeps never leak state
        # into each other); one replace, because NicConfig validates the
        # qdisc/reliability combination at construction
        overrides["reliability"] = ReliabilityConfig(enabled=True)
    if overrides:
        nic = dataclasses.replace(nic, **overrides)
    bundle = None
    if spec.telemetry or spec.lifecycle or spec.fabric:
        bundle = Telemetry(
            metrics=spec.telemetry,
            tracing=spec.lifecycle,
            timeline=spec.telemetry,
            health=spec.telemetry,
            fabric=spec.fabric,
        )
    result = bench.runner(
        nic, bench.params_cls(**params), telemetry=bundle, faults=spec.faults
    )
    report = None
    if bundle is not None:
        from repro.analysis.report import run_report

        report = run_report(bundle, benchmark=spec.benchmark, preset=preset, **params)
    return SweepRow(
        preset=preset,
        params=params,
        latency_ns=result.median_ns,
        extra=bench.row_extra(result) if bench.row_extra is not None else {},
        report=report,
    )


def _pool_entry(job: Tuple[SweepSpec, str, Dict[str, object]]) -> SweepRow:
    """Module-level worker so both fork and spawn start methods pickle it."""
    spec, preset, params = job
    return run_point(spec, preset, params)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (cheap, no re-import); spawn otherwise."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def run_sweep(spec: SweepSpec, *, workers: Optional[int] = None) -> List[SweepRow]:
    """Run every point of the grid; rows come back in grid order.

    ``workers``: None/0/1 runs in-process (building each preset's NIC
    configuration once and reusing it across that preset's points);
    ``workers >= 2`` fans the points out over a process pool.  Either
    way the rows are identical -- each point is an isolated simulation.
    """
    points = spec.points()
    if workers is not None and workers >= 2:
        jobs = [(spec, preset, params) for preset, params in points]
        with _pool_context().Pool(processes=workers) as pool:
            return pool.map(_pool_entry, jobs)
    # serial path: one NicConfig per preset, shared across its points
    nics: Dict[str, NicConfig] = {}
    rows = []
    for preset, params in points:
        if preset not in nics:
            nics[preset] = nic_preset(preset, block_size=spec.block_size)
        rows.append(run_point(spec, preset, params, nic=nics[preset]))
    return rows


def telemetry_report(rows: Iterable[SweepRow], **meta: object) -> Dict[str, object]:
    """Bundle sweep rows (with their run reports) into one dump.

    The shape matches what :func:`repro.analysis.load_report` loads back:
    ``{"version": 4, "meta": {...}, "rows": [{"preset", "params",
    "latency_ns", "extra", "report"}, ...]}``.
    """
    from repro.analysis.report import REPORT_VERSION

    return {
        "version": REPORT_VERSION,
        "meta": dict(meta),
        "rows": [dataclasses.asdict(row) for row in rows],
    }


def dump_telemetry(rows: Iterable[SweepRow], path: str, **meta: object) -> None:
    """Write the sweep's telemetry report to ``path`` as JSON.

    Parent directories are created as needed, so nested report paths
    like ``results/2026-08/fig5.json`` work without preparation.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(telemetry_report(rows, **meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
