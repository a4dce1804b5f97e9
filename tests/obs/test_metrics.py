"""Registry semantics and the cost of the disabled path."""

import json
import math

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NullRegistry,
    _NullHistogram,
)


class TestHistogram:
    def test_log_scale_buckets(self):
        h = Histogram("t")
        for v in (0, 1, 2, 3, 4, 1000):
            h.record(v)
        # bucket index == bit length: 0->0, 1->1, 2..3->2, 4->3, 1000->10
        assert h.buckets == {0: 1, 1: 1, 2: 2, 3: 1, 10: 1}
        assert h.count == 6
        assert h.min == 0 and h.max == 1000
        assert h.mean == pytest.approx(1010 / 6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram("t").record(-1)

    def test_empty_mean_is_zero(self):
        assert Histogram("t").mean == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_histogram(self):
        reg = MetricsRegistry()
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shapes_and_sorting(self):
        reg = MetricsRegistry()
        reg.register_collector("z/count", lambda: 3)
        h = reg.histogram("m/lens")
        h.record(2)
        h.record(5)
        reg.register_collector("k/pull", lambda: 42)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["z/count"] == 3
        assert snap["m/lens"] == {
            "count": 2,
            "sum": 7,
            "min": 2,
            "max": 5,
            "mean": 3.5,
            "buckets": {"2": 1, "3": 1},
        }
        assert snap["k/pull"] == 42
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_collector_may_return_a_level(self):
        # a level is published as its current value and high-water mark,
        # both read from the component's own tallies at snapshot time
        reg = MetricsRegistry()
        depth, peak = [4], [7]
        reg.register_collector(
            "a/depth", lambda: {"value": depth[0], "high_water": peak[0]}
        )
        assert reg.snapshot()["a/depth"] == {"value": 4, "high_water": 7}
        depth[0] = peak[0] = 9
        assert reg.snapshot()["a/depth"] == {"value": 9, "high_water": 9}

    def test_collector_last_registration_wins(self):
        reg = MetricsRegistry()
        reg.register_collector("x", lambda: 1)
        reg.register_collector("x", lambda: 2)
        assert reg.snapshot()["x"] == 2

    def test_non_finite_collector_values_become_none(self):
        reg = MetricsRegistry()
        reg.register_collector("bad", lambda: math.nan)
        reg.register_collector("worse", lambda: math.inf)
        snap = reg.snapshot()
        assert snap["bad"] is None and snap["worse"] is None
        json.dumps(snap)

    def test_names_lists_histograms_and_collectors(self):
        reg = MetricsRegistry()
        reg.histogram("b")
        reg.register_collector("a", lambda: 0)
        assert reg.names() == ["a", "b"]


class TestDisabledPath:
    """The default (disabled) registry must cost ~nothing per event."""

    def test_null_registry_hands_out_a_shared_histogram(self):
        assert NULL_REGISTRY.histogram("anything") is NULL_HISTOGRAM
        assert NULL_REGISTRY.histogram("other") is NULL_HISTOGRAM

    def test_null_registry_retains_nothing(self):
        NULL_HISTOGRAM.record(7)
        assert NULL_HISTOGRAM.count == 0
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.names() == []

    def test_null_registry_takes_no_collectors(self):
        # components register collectors only when the registry is
        # enabled, so the disabled one has nothing to accept them with
        assert not NULL_REGISTRY.enabled
        assert MetricsRegistry().enabled
        assert not hasattr(NULL_REGISTRY, "register_collector")

    def test_disabled_record_is_a_trivial_method(self):
        # The contract: a disabled record compiles to an empty function
        # body (no allocation, no branching, no dict writes) -- i.e. the
        # per-sample overhead is one attribute lookup plus a no-op call.
        # Pin it by inspecting the bytecode size.
        method = _NullHistogram.record
        assert len(method.__code__.co_code) <= 16
        assert method.__code__.co_consts == (None,)

    def test_null_registry_is_module_singleton(self):
        assert isinstance(NULL_REGISTRY, NullRegistry)
        from repro.obs import NULL_REGISTRY as reexported

        assert reexported is NULL_REGISTRY
