"""Unit tests for replacement policies.

Policies address ways by flat slot (``set * ways + way``) and are only
asked for victims in full sets; the cache itself fills invalid ways.
"""

import pytest

from repro.cache import (
    Cache,
    CacheConfig,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    make_replacement_policy,
)


def test_lru_evicts_oldest():
    policy = LRUPolicy(num_sets=2, ways=4)
    for slot in range(8):
        policy.on_fill(slot)
    policy.on_hit(0)  # way 0 of set 0 becomes most recent
    assert policy.victim(0) == 1
    assert policy.victim(4) == 4  # set 1 (slots 4-7) is untouched


@pytest.mark.parametrize("replacement", ["lru", "srrip", "random"])
def test_fill_reuses_invalidated_way_without_evicting(replacement):
    cache = Cache(CacheConfig(name="t", size_bytes=1024, ways=4,
                              latency_cycles=1, replacement=replacement))
    stride = cache.config.num_sets * cache.config.line_bytes
    lines = [k * stride for k in range(4)]
    for addr in lines:
        assert cache.fill(addr) is None
    assert cache.invalidate(lines[2]) is False
    assert cache.fill(4 * stride) is None
    assert cache.stats.evictions == 0
    assert cache.resident_lines(0) == [0, stride, 4 * stride, 3 * stride]
    # The set is full again: the next fill evicts.
    assert cache.fill(5 * stride) is not None


def test_srrip_hit_promotes_to_zero():
    policy = SRRIPPolicy(num_sets=1, ways=2)
    policy.on_fill(0)
    policy.on_fill(1)
    policy.on_hit(0)
    # Way 0 has RRPV 0, way 1 has MAX-1; aging finds way 1 first.
    assert policy.victim(0) == 1


def test_srrip_can_retain_reused_line_against_fills():
    """The property that defeats naive eviction sets (Table 1): a re-used
    line survives a burst of single-use fills."""
    policy = SRRIPPolicy(num_sets=1, ways=4)
    for slot in range(4):
        policy.on_fill(slot)
    policy.on_hit(2)  # target line re-referenced
    victims = [policy.victim(0) for _ in range(3)]
    assert 2 not in victims


def test_random_is_deterministic_under_seed():
    a = RandomPolicy(num_sets=2, ways=8, seed=7)
    b = RandomPolicy(num_sets=2, ways=8, seed=7)
    victims = [a.victim(8) for _ in range(10)]
    assert victims == [b.victim(8) for _ in range(10)]
    assert all(8 <= slot < 16 for slot in victims)


def test_factory_dispatch():
    assert isinstance(make_replacement_policy("lru", 4, 2), LRUPolicy)
    assert isinstance(make_replacement_policy("srrip", 4, 2), SRRIPPolicy)
    assert isinstance(make_replacement_policy("random", 4, 2), RandomPolicy)
    with pytest.raises(ValueError):
        make_replacement_policy("fifo", 4, 2)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        LRUPolicy(num_sets=0, ways=4)
