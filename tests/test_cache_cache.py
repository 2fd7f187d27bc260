"""Unit tests for a single cache level."""

import pytest

from repro.cache import Cache, CacheConfig


def make_cache(size=4096, ways=4, replacement="lru"):
    return Cache(CacheConfig(name="test", size_bytes=size, ways=ways,
                             latency_cycles=4, replacement=replacement))


def test_miss_then_fill_then_hit():
    cache = make_cache()
    assert not cache.access(0x1000)
    cache.fill(0x1000)
    assert cache.access(0x1000)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_same_line_different_offsets_hit():
    cache = make_cache()
    cache.fill(0x1000)
    assert cache.access(0x103F)  # same 64B line
    assert not cache.access(0x1040)  # next line


def test_fill_evicts_when_set_full():
    cache = make_cache(size=1024, ways=2)  # 8 sets
    stride = cache.config.num_sets * cache.config.line_bytes
    base = 0x0
    cache.fill(base)
    cache.fill(base + stride)
    evicted = cache.fill(base + 2 * stride)
    assert evicted is not None
    assert evicted[0] == base
    assert not cache.probe(base)


def test_dirty_eviction_reported():
    cache = make_cache(size=1024, ways=1)
    stride = cache.config.num_sets * cache.config.line_bytes
    cache.fill(0x0, dirty=True)
    evicted = cache.fill(stride)
    assert evicted is not None and evicted[1]
    assert cache.stats.writebacks == 1


def test_write_sets_dirty_bit():
    cache = make_cache(size=1024, ways=1)
    stride = cache.config.num_sets * cache.config.line_bytes
    cache.fill(0x0)
    cache.access(0x0, is_write=True)
    evicted = cache.fill(stride)
    assert evicted[1]


def test_invalidate_returns_dirty_state():
    cache = make_cache()
    cache.fill(0x1000, dirty=True)
    cache.fill(0x2000, dirty=False)
    assert cache.invalidate(0x1000) is True
    assert cache.invalidate(0x2000) is False
    assert cache.invalidate(0x3000) is None
    assert not cache.probe(0x1000)


def test_probe_has_no_side_effects():
    cache = make_cache()
    cache.fill(0x1000)
    before = cache.stats.hits
    assert cache.probe(0x1000)
    assert cache.stats.hits == before


def test_refill_existing_line_is_noop_eviction():
    cache = make_cache()
    cache.fill(0x1000)
    assert cache.fill(0x1000) is None


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        CacheConfig(name="bad", size_bytes=100, ways=3, latency_cycles=1)
    with pytest.raises(ValueError):
        CacheConfig(name="bad", size_bytes=32, ways=1, latency_cycles=1)
