"""Tests for the pluggable match-backend layer (registry + protocol)."""

import dataclasses

import pytest

from repro.nic.backends import (
    AlpuMatchBackend,
    HashTableBackend,
    ListSearchBackend,
    backend_spec,
    create_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.nic.firmware import FirmwareConfig
from repro.nic.nic import NicConfig
from repro.workloads.pingpong import PingPongParams, run_pingpong


def test_stock_backends_are_registered():
    assert set(registered_backends()) >= {"list", "hash", "alpu"}
    assert backend_spec("list").factory is ListSearchBackend
    assert backend_spec("hash").factory is HashTableBackend
    assert backend_spec("alpu").factory is AlpuMatchBackend
    assert not backend_spec("list").needs_alpu
    assert not backend_spec("hash").needs_alpu
    assert backend_spec("alpu").needs_alpu


def test_unknown_backend_rejected_everywhere():
    with pytest.raises(ValueError, match="unknown matching engine"):
        backend_spec("tcam")
    with pytest.raises(ValueError, match="unknown matching engine"):
        FirmwareConfig(matching="tcam")
    with pytest.raises(ValueError, match="unknown matching engine"):
        create_backend("tcam")


def test_duplicate_registration_rejected_without_replace():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("list", ListSearchBackend)


def test_firmware_config_backcompat():
    # the string values resolve to their registered backends
    assert FirmwareConfig(matching="list").backend.name == "list"
    assert FirmwareConfig(matching="hash").backend.name == "hash"


def test_firmware_config_has_no_legacy_alpu_flag():
    # ``matching`` alone selects the engine
    assert [f.name for f in dataclasses.fields(FirmwareConfig)] == [
        "matching",
        "eager_threshold",
        "match_format",
    ]
    assert NicConfig.baseline().firmware.backend.name == "list"
    assert NicConfig.with_alpu().firmware.backend.needs_alpu


def test_needs_alpu_drives_nic_assembly():
    from repro.mpi.world import MpiWorld, WorldConfig

    software = MpiWorld(WorldConfig(num_ranks=2, nic=NicConfig.baseline()))
    assert software.nics[0].alpu_devices == ()
    assert software.nics[0].posted_driver is None

    hardware = MpiWorld(
        WorldConfig(num_ranks=2, nic=NicConfig.with_backend("alpu"))
    )
    assert len(hardware.nics[0].alpu_devices) == 2
    assert hardware.nics[0].posted_driver is not None


class TracingToyBackend(ListSearchBackend):
    """List search that counts protocol calls -- a minimal third engine."""

    name = "toy"
    calls = None  # set per-registration by the test

    def match_arrival(self, request):
        type(self).calls["match_arrival"] += 1
        return (yield from super().match_arrival(request))

    def consume_unexpected(self, request):
        type(self).calls["consume_unexpected"] += 1
        return (yield from super().consume_unexpected(request))


def test_custom_backend_runs_end_to_end():
    TracingToyBackend.calls = {"match_arrival": 0, "consume_unexpected": 0}
    register_backend("toy", TracingToyBackend)
    try:
        nic = NicConfig.with_backend("toy")
        assert nic.firmware.matching == "toy"
        result = run_pingpong(nic, PingPongParams(iterations=3, warmup=1))
        assert len(result.latencies_ns) == 3
        assert all(ns > 0 for ns in result.latencies_ns)
        # the firmware routed its matching work through the toy engine
        assert TracingToyBackend.calls["match_arrival"] > 0
        assert TracingToyBackend.calls["consume_unexpected"] > 0
    finally:
        unregister_backend("toy")
    with pytest.raises(ValueError, match="unknown matching engine"):
        FirmwareConfig(matching="toy")


def test_custom_backend_matches_list_timing():
    """A subclass that adds no cost must reproduce list timing exactly."""
    TracingToyBackend.calls = {"match_arrival": 0, "consume_unexpected": 0}
    register_backend("toy", TracingToyBackend)
    try:
        params = PingPongParams(iterations=4, warmup=1)
        baseline = run_pingpong(NicConfig.baseline(), params)
        toy = run_pingpong(NicConfig.with_backend("toy"), params)
        assert toy.latencies_ns == baseline.latencies_ns
    finally:
        unregister_backend("toy")
