"""Ablations of three design choices the paper argues for.

* **Hash-table matching (Section II).** "Hash tables can significantly
  reduce the time needed to find a matching entry, but can also
  significantly increase the time needed to insert an entry ... especially
  noticeable in the zero-length ping-pong latency test."  Both corners on
  one simulated system: hash loses the zero-length ping-pong and wins the
  long-queue search, and the ALPU wins both.
* **The engagement threshold (Sections IV-B, VI-B).** "With 5 entries in
  the posted receive queue, the ALPU breaks even", so the library need
  not use the ALPU below that.  At threshold 5 short queues run at
  baseline speed while long queues keep the flat ALPU curve.
* **The "space available" compaction rule (Section III-B).** The FPGA
  prototype lets a cell shift only within its block or into the next
  block's lowest cell, and the paper judges that "likely sufficient for
  all real cases".  Under hole-heavy churn the block rule needs a few
  more compaction steps but almost never stalls an insert.
"""

import dataclasses
import random

from repro.analysis.curves import latency_series
from repro.analysis.tables import format_rows
from repro.core.alpu import Alpu, AlpuConfig, CompactionReach
from repro.core.commands import Insert, StartInsert, StopInsert
from repro.core.match import MatchFormat, MatchRequest
from repro.nic.driver import DriverConfig
from repro.nic.nic import NicConfig
from repro.workloads.pingpong import PingPongParams, run_pingpong
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads.sweep import SweepSpec, nic_preset, run_sweep

ITERS = dict(iterations=6, warmup=2)
FMT = MatchFormat()

#: engine name -> the preset that builds it
ENGINES = {"list": "baseline", "hash": "hash", "alpu": "alpu256"}
HASH_LENGTHS = (1, 32, 128, 256)


def test_hash_ablation():
    pingpong = {
        name: run_pingpong(
            nic_preset(preset), PingPongParams(iterations=8, warmup=3)
        ).mean_ns
        for name, preset in ENGINES.items()
    }
    by_preset = latency_series(run_sweep(
        SweepSpec.preposted(ENGINES.values(), HASH_LENGTHS, (1.0,), **ITERS)
    ))
    depth = {name: by_preset[preset] for name, preset in ENGINES.items()}
    print()
    print("ABLATION -- hash-table matching vs list vs ALPU")
    print(format_rows(
        ["engine", "0B ping-pong (ns)"] + [f"L={x}" for x in HASH_LENGTHS],
        [
            [name, f"{pingpong[name]:.0f}"] + [f"{x:.0f}" for x in depth[name]]
            for name in ENGINES
        ],
    ))
    # corner 1: the zero-length regression is real and significant
    assert pingpong["hash"] > pingpong["list"] + 100
    # and the ALPU does NOT pay it anywhere near as badly -- that is the
    # design win of the paper
    assert pingpong["alpu"] - pingpong["list"] < 0.75 * (
        pingpong["hash"] - pingpong["list"]
    )
    # corner 2: at long queues the hash beats the traversing list...
    assert depth["hash"][-1] < 0.5 * depth["list"][-1]
    # ...but the ALPU beats or matches the hash without the insert tax
    assert depth["alpu"][-1] <= depth["hash"][-1] * 1.05


THRESHOLD_LENGTHS = [1, 2, 4, 8, 16, 64, 128]


def nic_with_threshold(threshold: int) -> NicConfig:
    return dataclasses.replace(
        nic_preset("alpu256"),
        posted_driver=DriverConfig(use_threshold=threshold),
        unexpected_driver=DriverConfig(use_threshold=threshold),
    )


def test_threshold_ablation():
    nics = {
        "baseline": nic_preset("baseline"),
        "threshold=1": nic_with_threshold(1),
        "threshold=5": nic_with_threshold(5),
    }
    threshold_curves = {
        name: [
            run_preposted(
                nic,
                PrepostedParams(
                    queue_length=length, traverse_fraction=1.0, **ITERS
                ),
            ).median_ns
            for length in THRESHOLD_LENGTHS
        ]
        for name, nic in nics.items()
    }
    print()
    print("ABLATION -- ALPU engagement threshold (latency in ns)")
    print(format_rows(
        ["queue length"] + [str(x) for x in THRESHOLD_LENGTHS],
        [
            [name] + [f"{x:.0f}" for x in series]
            for name, series in threshold_curves.items()
        ],
    ))
    baseline = threshold_curves["baseline"]
    always = threshold_curves["threshold=1"]
    thresholded = threshold_curves["threshold=5"]
    # below the threshold, the thresholded driver matches the baseline
    # (no ALPU interaction overhead)...
    for i, length in enumerate(THRESHOLD_LENGTHS):
        if length < 5:
            assert abs(thresholded[i] - baseline[i]) < 30
    # ...while the always-on driver pays its fixed overhead there
    assert always[0] > baseline[0] + 30
    # at long queues both ALPU variants converge and crush the baseline
    tail = THRESHOLD_LENGTHS.index(128)
    assert abs(thresholded[tail] - always[tail]) < 60
    assert thresholded[tail] < 0.6 * baseline[tail]


def churn(reach: CompactionReach, block_size: int, seed: int = 7):
    """Random high-turnover traffic; returns the ALPU's stall/step counters."""
    alpu = Alpu(
        AlpuConfig(total_cells=128, block_size=block_size, compaction_reach=reach)
    )
    rng = random.Random(seed)
    live = []
    next_tag = iter(range(1_000_000))
    for _ in range(400):
        if live and rng.random() < 0.5:
            # match (and delete) a random live entry
            bits = live.pop(rng.randrange(len(live)))
            alpu.present_header(MatchRequest(bits=bits))
        elif alpu.free_entries:
            alpu.submit(StartInsert())
            for _ in range(rng.randint(1, 3)):
                if not alpu.free_entries:
                    break
                bits = FMT.pack(1, rng.randrange(64), rng.randrange(64))
                alpu.submit(Insert(bits, 0, next(next_tag) % 65536))
                live.append(bits)
            alpu.submit(StopInsert())
    return alpu.stats


def test_compaction_ablation():
    rows = []
    for block_size in (8, 16, 32):
        for reach in (CompactionReach.BLOCK, CompactionReach.GLOBAL):
            stats = churn(reach, block_size)
            rows.append((
                block_size,
                reach.value,
                stats.inserts,
                stats.compaction_steps,
                stats.insert_stall_cycles,
            ))
    print()
    print("ABLATION -- insert-mode compaction reach under churn")
    print(format_rows(
        ["block", "reach", "inserts", "compaction steps", "insert stalls"],
        rows,
    ))
    by_key = {(block, reach): (inserts, steps, stalls)
              for block, reach, inserts, steps, stalls in rows}
    for block_size in (8, 16, 32):
        inserts, _, block_stalls = by_key[(block_size, "block")]
        _, _, global_stalls = by_key[(block_size, "global")]
        # the paper's judgement: the restricted rule is "likely sufficient
        # for all real cases" -- it costs a fraction of a clock per insert
        # (sub-nanosecond at 500 MHz), not pipeline-visible delays
        assert block_stalls / inserts < 0.5
        # the relaxed rule eliminates stalls entirely...
        assert global_stalls == 0
        # ...which is the timing-vs-control trade the paper describes
        assert global_stalls <= block_stalls
    # stalls shrink as blocks grow (holes cross fewer boundaries)
    assert by_key[(32, "block")][2] <= by_key[(8, "block")][2]
