"""Smoke tests: the example scripts must run and report sane results.

Examples are documentation that executes; these tests keep them honest.
The slow sweep examples run in reduced form (the full figure grids are
checked in ``tests/paper``).
"""

import runpy
import sys



def run_example(name, argv=()):
    path = f"examples/{name}.py"
    old_argv = sys.argv
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    run_example("quickstart")
    output = capsys.readouterr().out
    assert "MatchSuccess(tag=1)" in output  # ordering beats specificity
    assert "half-RTT" in output


def test_wildcard_workers_runs(capsys):
    run_example("wildcard_workers")
    output = capsys.readouterr().out
    assert "items/worker=[6, 6, 6]" in output


def test_fpga_design_space_runs(capsys):
    run_example("fpga_design_space")
    output = capsys.readouterr().out
    assert "ASIC projection" in output
    assert "34%" in output  # the paper's ~35% V2P100 utilization claim


def test_trace_pingpong_runs(capsys, tmp_path):
    out = tmp_path / "pingpong.trace.json"
    run_example("trace_pingpong", [str(out)])
    output = capsys.readouterr().out
    assert "half-RTT mean" in output
    assert "message tracks" in output
    import json

    from repro.obs.chrome import LIFECYCLE_PID, PID

    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ns"
    events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    component = {(e["cat"], e["name"]) for e in events if e["pid"] == PID}
    stages = {e["name"] for e in events if e["pid"] == LIFECYCLE_PID}
    # both kinds of track: ALPU/search spans and probe counters on the
    # component tracks, every message journey on its own track
    assert ("nic1.alpu.posted", "match") in component
    assert ("nic1.unexpectedQ", "search") in component
    assert ("nic1.postedRecvQ", "nic1.postedRecvQ/depth") in component
    assert {"api_post", "wire", "rx_queue", "match_search", "deliver"} <= stages
    # each fact once: a message's wire record is on its track, not also
    # on the fabric's
    assert not any(cat == "fabric" and name == "wire" for cat, name in component)


def test_queue_depth_study_fast_runs(capsys):
    run_example("queue_depth_study", ["--fast"])
    output = capsys.readouterr().out
    assert "break-even at" in output
    assert "cache knee" in output


def test_topology_halo_runs(capsys):
    run_example("topology_halo")
    output = capsys.readouterr().out
    assert "crossbar over 16 nodes" in output
    assert "torus3d 2x2x4 over 16 nodes" in output
    assert "health: healthy" in output
    assert "mean utilization" in output


def test_logp_parameters_runs(capsys):
    run_example("logp_parameters")
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith(("o_s", "G:", "queue gap")):
            label, baseline, alpu = line.rsplit(None, 2)
            rows[label] = [float(baseline), float(alpu)]
    # the offload leaves the host and the wire alone...
    assert rows["o_s: send overhead (ns)"] == [50.0, 50.0]
    assert rows["G: per-byte gap (ns/B)"] == [1.0, 1.0]
    # ...and removes the queue-depth part of the gap while the ALPU holds
    # the whole queue
    baseline, alpu = rows["queue gap, 100-deep posted Q (ns)"]
    assert baseline > 0 and alpu == 0.0
    baseline, alpu = rows["queue gap, 400-deep posted Q (ns)"]
    assert baseline > alpu > 0
