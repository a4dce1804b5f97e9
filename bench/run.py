"""Run the benchmark: every workload end to end, and optionally by layer.

From the repository root::

    python -m bench.run [--seed N] [--repeats N] [--trace]
    python -m bench.run --workload NAME --seed N --seconds S --trace 0|1

Each (workload, pass) runs in a fresh child interpreter, one at a time,
so the simulator gets one core and nothing else of ours runs beside it.
Repeats are interleaved: repeat *r* starts at workload *r* mod 4.  With
``--seconds`` each workload instead gets that many seconds of passes
(at least one).  Every workload also runs :data:`SETUP_PROBES` set-up
probes, children that stop at the first ``Engine.run`` call, so
``setup_s`` is a median of many samples.

``--trace`` (or ``--trace 1``) adds one traced pass per workload; with
``--seconds`` the untraced part then shrinks to the single pass that
``trace.overhead_x`` divides by.  The trace's span aggregates go to
``bench/results/trace-<workload>.json``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer metrics
with ``--trace 1``; keyed per workload when several ran).  A results
document with the header, every sample and the simulated results goes
to ``bench/results/`` (or ``--out``); ``bench/compare.py`` diffs two.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"

#: set-up-only children per workload and run
SETUP_PROBES = 8
#: with ``--seconds``, each workload's share of the run ends within this
#: many seconds, whatever happens (children past it are killed and failed)
HARD_CAP_S = 170.0
#: timeout for one child when no ``--seconds`` budget applies
CHILD_TIMEOUT_S = 600.0

#: (name, unit, statistic over a run's samples).  Contention from other
#: tenants of the host only ever adds time, in episodes of seconds to
#: minutes, so the pass times take the best pass: it moves with the code,
#: the median moves with the host.  Set-up has many cheap samples and
#: takes their median; simulated metrics agree across passes anyway.
END_TO_END = (
    ("wall_s", "s", min),
    ("setup_s", "s", statistics.median),
    ("events_per_s", "1/s", max),
    ("peak_rss_mb", "MB", statistics.median),
    ("sim_p90_ns", "ns", statistics.median),
    ("sim_makespan_us", "us", statistics.median),
)


def _per_layer_units() -> Dict[str, str]:
    from bench.trace import COUNTERS, LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_frac"] = "ratio"
    for name in COUNTERS:
        if name.endswith(("_frac", "_rate", "_x")):
            units[name] = "ratio"
        elif name.endswith("_per_search"):
            units[name] = "entries/search"
        elif name.endswith("_per_packet"):
            units[name] = "hops/packet"
        else:
            units[name] = "count"
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------- header
def calibration_s(loops: int = 5) -> float:
    """Median time of a fixed pure-Python loop (read across machines only)."""
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) & 0xFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git(*args: str) -> Optional[str]:
    # the ceiling keeps git from searching above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def header(args) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "repeats": None if args.seconds else args.repeats,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "calibration_s": calibration_s(),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


# ---------------------------------------------------------------- children
class Runner:
    """Runs children one at a time and keeps every record they return."""

    def __init__(self, seed: int, deadline: Optional[float]) -> None:
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0

    def child(self, workload: str, mode: str) -> Optional[dict]:
        """One child run; ``None`` (and counted failed) when it did not succeed."""
        self.attempted += 1
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = self.deadline - time.monotonic()
        spec = json.dumps({"workload": workload, "seed": self.seed, "mode": mode})
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(spec, 0)
            done = subprocess.run(
                [sys.executable, "-m", "bench.child", spec],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"{workload} {mode}: out of time", file=sys.stderr)
            self.failed += 1
            return None
        if done.returncode != 0:
            print(f"{workload} {mode} failed:\n{done.stderr[-2000:]}", file=sys.stderr)
            self.failed += 1
            return None
        record = json.loads(done.stdout.splitlines()[-1])
        if record.get("failures"):
            print(f"{workload} {mode}: {record['failures']}", file=sys.stderr)
            self.failed += 1
        return record


def summarize(values: List[float], statistic=statistics.median) -> dict:
    """The reported ``value``, quartiles and count (quartiles collapse to
    the value when n=1)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistic(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def end_to_end(probes: List[dict], passes: List[dict]) -> Dict[str, dict]:
    untraced = [p for p in passes if p["mode"] == "pass"]
    columns = {
        "wall_s": [p["wall_s"] for p in untraced],
        "setup_s": [p["setup_s"] for p in probes + untraced],
        "events_per_s": [p["events_per_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "sim_p90_ns": [p["sim"]["p90_ns"] for p in untraced],
        "sim_makespan_us": [p["sim"]["makespan_us"] for p in untraced],
    }
    return {
        name: dict(summarize(columns[name], statistic), unit=unit)
        for name, unit, statistic in END_TO_END
        if columns[name]
    }


def per_layer(traced: dict, untraced_wall_s: float) -> Dict[str, dict]:
    values = {}
    for layer, totals in traced["trace"]["layers"].items():
        for key in ("calls", "self_s", "self_frac"):
            values[f"{layer}.{key}"] = totals[key]
    values.update(traced["counters"])
    values["trace.overhead_x"] = traced["wall_s"] / untraced_wall_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_workloads(args, names: List[str], runner: Runner) -> Dict[str, dict]:
    """Probes, interleaved passes and the traced pass, per workload."""
    from bench.workloads import WORKLOADS

    state = {
        name: {"probes": [], "passes": [], "spent": 0.0, "last": 0.0} for name in names
    }
    # a budgeted traced run needs only the one untraced pass that
    # trace.overhead_x divides by
    overhead_only = args.seconds is not None and args.trace
    if not overhead_only:
        for name in names:
            for _ in range(SETUP_PROBES):
                start = time.monotonic()
                record = runner.child(name, "probe")
                state[name]["spent"] += time.monotonic() - start
                if record is not None:
                    state[name]["probes"].append(record)

    def wants_pass(name: str, repeat: int) -> bool:
        if args.seconds is None:
            return repeat < args.repeats
        if repeat == 0:
            return True
        s = state[name]
        # the last pass's duration predicts whether another one fits
        return not overhead_only and s["spent"] + s["last"] <= args.seconds

    repeat = 0
    while True:
        order = names[repeat % len(names):] + names[: repeat % len(names)]
        due = [name for name in order if wants_pass(name, repeat)]
        if not due:
            break
        for name in due:
            start = time.monotonic()
            record = runner.child(name, "pass")
            s = state[name]
            s["last"] = time.monotonic() - start
            s["spent"] += s["last"]
            if record is not None:
                s["passes"].append(record)
        repeat += 1

    results = {}
    for name in names:
        s = state[name]
        traced = runner.child(name, "traced") if args.trace else None
        full = s["passes"] + ([traced] if traced else [])
        digests = [p["sim"]["digest"] for p in full]
        if len(set(digests)) > 1:
            # the passes outside the largest agreeing group count as failed
            print(f"{name}: simulated results differ between passes", file=sys.stderr)
            runner.failed += len(full) - max(digests.count(d) for d in digests)
        workload = WORKLOADS[name]
        entry = {
            "params": {workload.free: workload.value(args.seed)},
            "probes": len(s["probes"]),
            "passes": len(s["passes"]),
            "metrics": end_to_end(s["probes"], s["passes"]),
            "sim": full[0]["sim"] if full else None,
        }
        if traced and s["passes"]:
            entry["per_layer"] = per_layer(
                traced, entry["metrics"]["wall_s"]["value"]
            )
            RESULTS.mkdir(parents=True, exist_ok=True)
            trace_doc = dict(
                traced["trace"],
                workload=name,
                seed=args.seed,
                wall_s=traced["wall_s"],
                counters=traced["counters"],
            )
            (RESULTS / f"trace-{name}.json").write_text(json.dumps(trace_doc, indent=1))
        results[name] = entry
    return results


# ---------------------------------------------------------------- output
def print_report(head: dict, results: Dict[str, dict]) -> None:
    dirty = {True: " (dirty)", False: "", None: " (no git)"}[head["dirty"]]
    print(
        f"# commit {head['commit'][:12]}{dirty} | Python {head['python']} | "
        f"{head['platform']} | nproc {head['nproc']} | seed {head['seed']} | "
        f"calibration {head['calibration_s']:.4f} s"
    )
    for name, entry in results.items():
        params = ", ".join(f"{k}={v}" for k, v in entry["params"].items())
        print(f"{name} [{params}]: {entry['passes']} passes, {entry['probes']} probes")
        for metric, s in entry["metrics"].items():
            print(
                f"  {metric:<18} {s['value']:>14.6g} {s['unit']:<6} "
                f"IQR {s['q3'] - s['q1']:.4g}  n={s['n']}"
            )
        sim = entry["sim"]
        if sim:
            extra = "".join(
                f"  {k} {v:.4g}"
                for k, v in sim.items()
                if k not in ("p50_ns", "p90_ns", "makespan_us", "samples", "events", "digest")
            )
            print(
                f"  simulated: p50 {sim['p50_ns']:g} ns  p90 {sim['p90_ns']:g} ns  "
                f"makespan {sim['makespan_us']:g} us  samples {sim['samples']}  "
                f"events {sim['events']}{extra}"
            )
        for metric, m in entry.get("per_layer", {}).items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")


def line_metrics(results: Dict[str, dict], trace: bool) -> dict:
    """The final line's ``metrics``: one workload flat, several keyed by name."""
    keyed = {}
    for name, entry in results.items():
        if trace:
            keyed[name] = entry.get("per_layer", {})
        else:
            keyed[name] = {
                metric: {"value": s["value"], "unit": s["unit"]}
                for metric, s in entry["metrics"].items()
            }
    return next(iter(keyed.values())) if len(keyed) == 1 else keyed


def parse_args(argv):
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="untraced passes per workload")
    parser.add_argument(
        "--seconds",
        type=int,
        default=None,
        help="time budget per workload instead of --repeats",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add a traced pass and report the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=None, help="results JSON path")
    args = parser.parse_args(argv)
    if args.repeats < 1 or (args.seconds is not None and args.seconds < 1):
        parser.error("--repeats and --seconds must be at least 1")
    args.workload = args.workload or list(WORKLOADS)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = None
    if args.seconds is not None:
        deadline = started + HARD_CAP_S * len(args.workload)
    head = header(args)
    runner = Runner(args.seed, deadline)
    results = run_workloads(args, args.workload, runner)
    head["elapsed_s"] = time.monotonic() - started
    document = {"header": head, "workloads": results}
    out = args.out
    if out is None:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        out = RESULTS / f"run-{stamp}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print_report(head, results)
    print(f"# results: {os.path.relpath(out, ROOT)}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": line_metrics(results, bool(args.trace)),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
