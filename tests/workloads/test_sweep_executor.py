"""Tests for the generic grid-sweep executor (SweepSpec / run_sweep)."""

import dataclasses

import pytest

from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.workloads.alltoall import AlltoallParams, run_alltoall
from repro.workloads.multijob import MultijobParams, run_multijob
from repro.workloads.storm import StormParams, run_storm
from repro.workloads.sweep import SweepRow, SweepSpec, nic_preset, run_sweep


def _small_preposted_spec(**overrides):
    kwargs = dict(iterations=3, warmup=1)
    kwargs.update(overrides)
    return SweepSpec.preposted(
        ("baseline", "alpu128"), (1, 4), (0.0, 1.0), **kwargs
    )


def test_points_expand_in_legacy_order():
    spec = _small_preposted_spec()
    points = spec.points()
    assert [(preset, p["queue_length"], p["traverse_fraction"]) for preset, p in points] == [
        ("baseline", 1, 0.0),
        ("baseline", 1, 1.0),
        ("baseline", 4, 0.0),
        ("baseline", 4, 1.0),
        ("alpu128", 1, 0.0),
        ("alpu128", 1, 1.0),
        ("alpu128", 4, 0.0),
        ("alpu128", 4, 1.0),
    ]
    # fixed parameters ride on every point
    assert all(p["iterations"] == 3 and p["warmup"] == 1 for _, p in points)


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        SweepSpec(benchmark="allreduce", presets=("baseline",), axes=())


@pytest.mark.parametrize(
    "name, axes, fixed, match",
    [
        ("preposted", (("queue_lenght", (4,)),), (), "no parameter"),
        ("unexpected", (("queue_length", (4,)),), (("itrations", 3),),
         "no parameter"),
        ("preposted", (("queue_length", (4,)),), (("queue_length", 8),),
         "more than once"),
        ("preposted", (("queue_length", (1,)), ("queue_length", (4,))), (),
         "more than once"),
    ],
    ids=["axis-typo", "fixed-typo", "axis-and-fixed", "axis-twice"],
)
def test_bad_grids_rejected_at_construction(name, axes, fixed, match):
    with pytest.raises(ValueError, match=match):
        SweepSpec(benchmark=name, presets=("baseline",), axes=axes, fixed=fixed)


def test_parallel_rows_bit_identical_to_serial():
    spec = _small_preposted_spec()
    serial = run_sweep(spec)
    fanned = run_sweep(spec, workers=2)
    assert serial == fanned
    assert all(isinstance(row, SweepRow) for row in fanned)
    assert [row.params for row in serial] == [p for _, p in spec.points()]
    assert all(row.extra == {} for row in serial)


def test_parallel_unexpected_matches_serial():
    spec = SweepSpec.unexpected(
        ("baseline", "alpu128"), (0, 2), iterations=3, warmup=1
    )
    serial = run_sweep(spec)
    fanned = run_sweep(spec, workers=2)
    assert serial == fanned
    assert all(isinstance(row, SweepRow) for row in fanned)


_ADMISSION = QdiscConfig(
    discipline="sharded", max_unexpected=8, admission_policy="nack"
)


@pytest.mark.parametrize(
    "name, axes, fixed, qdisc, direct, extra_attrs",
    [
        (
            "storm",
            (("workers", (2,)),),
            (("messages_per_worker", 40), ("window", 8)),
            _ADMISSION,
            lambda nic: run_storm(
                nic, StormParams(workers=2, messages_per_worker=40, window=8)
            ),
            {
                "max_depth": "max_unexpected_depth",
                "refused": "refused",
                "retransmits": "retransmits",
            },
        ),
        (
            "multijob",
            (("hog_messages", (32,)),),
            (("iterations", 4), ("warmup", 1)),
            _ADMISSION,
            lambda nic: run_multijob(
                nic, MultijobParams(hog_messages=32, iterations=4, warmup=1)
            ),
            {"max_depth": "max_unexpected_depth", "refused": "refused"},
        ),
        (
            "alltoall",
            (("num_ranks", (4,)),),
            (("degree", 2), ("rounds", 2)),
            None,
            lambda nic: run_alltoall(
                nic, AlltoallParams(num_ranks=4, degree=2, rounds=2)
            ),
            {},
        ),
    ],
    ids=["storm", "multijob", "alltoall"],
)
def test_row_extra_matches_a_direct_run(name, axes, fixed, qdisc, direct, extra_attrs):
    """Each benchmark's row carries the runner's median and its extra
    columns, serially and fanned out alike."""
    spec = SweepSpec(
        benchmark=name,
        presets=("baseline",),
        axes=axes,
        fixed=fixed,
        qdisc=qdisc,
    )
    (row,) = run_sweep(spec)
    assert run_sweep(spec, workers=2) == [row]
    nic = nic_preset("baseline")
    if qdisc is not None:
        # admission control runs over the reliability layer
        nic = dataclasses.replace(
            nic, qdisc=qdisc, reliability=ReliabilityConfig(enabled=True)
        )
    result = direct(nic)
    assert row.latency_ns == result.median_ns
    assert row.params == {**dict(fixed), **{n: v[0] for n, v in axes}}
    assert row.extra == {
        column: getattr(result, attr) for column, attr in extra_attrs.items()
    }
