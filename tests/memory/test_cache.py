"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheConfig


def small_cache(ways=2, sets=4, line=64):
    return Cache(CacheConfig(size_bytes=ways * sets * line, ways=ways, line_bytes=line))


def test_geometry():
    config = CacheConfig(size_bytes=32 * 1024, ways=64, line_bytes=64)
    assert config.num_sets == 8
    assert config.num_lines == 512


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, ways=3, line_bytes=64)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=0, ways=1)


def test_first_access_misses_then_hits():
    cache = small_cache()
    assert cache.access(0x100).hit is False
    assert cache.access(0x100).hit is True
    assert cache.access(0x108).hit is True  # same line
    assert (cache.hits, cache.misses) == (2, 1)


def test_lru_eviction_within_set():
    cache = small_cache(ways=2, sets=1)
    cache.access(0 * 64)
    cache.access(1 * 64)
    cache.access(0 * 64)  # 0 becomes MRU; 1 is now LRU
    cache.access(2 * 64)  # evicts 1
    assert cache.access(0 * 64).hit
    assert cache.access(2 * 64).hit
    assert not cache.access(1 * 64).hit


def test_dirty_eviction_reports_writeback_line():
    cache = small_cache(ways=1, sets=1)
    cache.access(0, write=True)
    result = cache.access(64)
    assert result.hit is False
    assert result.writeback_line == 0  # line index of the dirty victim
    assert cache.writebacks == 1


def test_clean_eviction_has_no_writeback():
    cache = small_cache(ways=1, sets=1)
    cache.access(0)
    result = cache.access(64)
    assert result.writeback_line is None


def test_write_hit_marks_dirty_for_later_eviction():
    cache = small_cache(ways=1, sets=1)
    cache.access(0)           # clean fill
    cache.access(0, write=True)  # dirty the resident line
    result = cache.access(64)
    assert result.writeback_line == 0


def test_invalidate_all():
    cache = small_cache()
    cache.access(0)
    cache.access(64)
    assert cache.invalidate_all() == 2
    assert cache.occupancy == 0
    assert not cache.access(0).hit


def test_hit_rate_and_reset():
    cache = small_cache()
    cache.access(0)
    cache.access(0)
    assert cache.hit_rate == 0.5
    cache.reset_stats()
    assert cache.accesses == 0
    assert Cache(CacheConfig(256, 2, 64)).hit_rate == 0.0


def test_sequential_working_set_beyond_capacity_thrashes():
    """LRU + repeated sequential scan over > capacity lines: zero hits."""
    cache = small_cache(ways=4, sets=4)  # 16 lines capacity
    lines = 24
    for _ in range(2):
        for i in range(lines):
            cache.access(i * 64)
    # second pass must miss everywhere (the defining LRU pathology the
    # paper's cache cliff is made of)
    assert cache.hits == 0
    assert cache.misses == 2 * lines


def test_working_set_within_capacity_all_hits_on_repeat():
    cache = small_cache(ways=4, sets=4)
    for i in range(16):
        cache.access(i * 64)
    cache.reset_stats()
    for i in range(16):
        cache.access(i * 64)
    assert cache.misses == 0


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=0x4000), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(addresses):
    cache = small_cache(ways=2, sets=4)
    for addr in addresses:
        cache.access(addr)
    assert cache.occupancy <= cache.config.num_lines
    # and every set respects its way bound
    for cache_set in cache._sets:
        assert len(cache_set) <= cache.config.ways


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=0x2000), min_size=1, max_size=100))
def test_immediate_re_access_always_hits(addresses):
    cache = small_cache()
    for addr in addresses:
        cache.access(addr)
        assert cache.access(addr).hit
