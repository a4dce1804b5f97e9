"""One measured pass of one workload, in a fresh interpreter.

    python -m bench.child '{"workload": "fig6-list-q1024", "seed": 0, "mode": "pass"}'

Modes:

``probe``
    Stop at the first ``Engine.run`` call: measures set-up only
    (imports plus world, NIC, ALPU and fabric construction).
``pass``
    A full untraced pass.
``traced``
    A full pass with the layer wrappers of :mod:`bench.trace` installed
    and a metrics-only ``Telemetry`` attached for the counters.

The last line of standard output is one JSON record.  The clock starts
before ``repro`` is imported, so ``setup_s`` includes the import.
"""

import time

_STARTED = time.perf_counter()

import hashlib  # noqa: E402 - after the set-up clock starts
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Optional  # noqa: E402

from bench.trace import Tracer, counter_values  # noqa: E402
from bench.workloads import percentile, run_workload  # noqa: E402

MODES = ("probe", "pass", "traced")


class _SetupDone(BaseException):
    """Unwinds a probe at the first ``Engine.run`` (nothing catches it)."""


def _engine_hook(record: dict, probe: bool):
    """Wrap ``Engine.run`` to time set-up, the run loop and its events."""
    from repro.sim.engine import Engine

    original = Engine.run

    def run(self, *args, **kwargs):
        start = time.perf_counter()
        record.setdefault("setup_s", start - _STARTED)
        if probe:
            raise _SetupDone
        fired = self.events_fired
        try:
            return original(self, *args, **kwargs)
        finally:
            record["run_s"] = record.get("run_s", 0.0) + time.perf_counter() - start
            record["events"] = record.get("events", 0) + self.events_fired - fired
            record["makespan_us"] = self.now / 1e6

    Engine.run = run
    return lambda: setattr(Engine, "run", original)


def measure(workload: str, seed: int, mode: str, length: Optional[int] = None) -> dict:
    """Run one pass in this process; returns the record the parent reads."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    record: dict = {"workload": workload, "seed": seed, "mode": mode}
    restore = _engine_hook(record, probe=mode == "probe")
    try:
        if mode == "probe":
            try:
                run_workload(workload, seed, length=length)
            except _SetupDone:
                return record
            raise RuntimeError("the workload never started the engine")
        tracer = telemetry = None
        if mode == "traced":
            from repro.obs.telemetry import Telemetry

            tracer = Tracer()
            tracer.install()
            telemetry = Telemetry(metrics=True, tracing=False, probe_interval_ps=None)
        start = time.perf_counter()
        try:
            outcome = run_workload(workload, seed, telemetry, length)
        finally:
            record["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    finally:
        restore()
    samples = outcome.latencies_ns
    record.update(
        events_per_s=record["events"] / record["run_s"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failures=outcome.failures,
        sim={
            "p50_ns": percentile(samples, 0.5),
            "p90_ns": percentile(samples, 0.9),
            "makespan_us": record["makespan_us"],
            "samples": len(samples),
            "events": record["events"],
            # every simulated output in one value, for determinism checks
            "digest": hashlib.sha256(
                json.dumps([samples, record["events"], record["makespan_us"]]).encode()
            ).hexdigest()[:16],
            **outcome.extra,
        },
    )
    if tracer is not None:
        record["trace"] = tracer.to_obj()
        record["counters"] = counter_values(
            telemetry.snapshot(), tracer, record["events"]
        )
    return record


def main(argv) -> int:
    spec = json.loads(argv[0])
    record = measure(spec["workload"], spec["seed"], spec["mode"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
