"""Unit tests for replacement policies.

Policies address ways by flat slot (``set * ways + way``) and are only
asked for victims in full sets; the cache itself fills invalid ways.
"""

import gc
import random
from array import array

import pytest

from repro.cache import (
    Cache,
    CacheConfig,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    make_replacement_policy,
)
from repro.config import SystemConfig
from repro.exp.figures import _sec33_system
from repro.system import System


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


def _reference_srrip_victim(rrpv, base, ways, max_rrpv=SRRIPPolicy.MAX_RRPV):
    """SRRIP victim selection as first written, on a list of RRPVs."""
    end = base + ways
    try:
        return rrpv.index(max_rrpv, base, end)
    except ValueError:
        pass
    row = rrpv[base:end]
    oldest = max(row)
    step = max_rrpv - oldest
    rrpv[base:end] = [r + step for r in row]
    return base + row.index(oldest)


@pytest.mark.parametrize("seed", range(5))
def test_srrip_victim_matches_reference(seed):
    rng = random.Random(seed)
    ways = 8
    policy = SRRIPPolicy(num_sets=64, ways=ways)
    # Half the rows have no way at the maximum, so victim() must age them.
    for set_index in range(64):
        top = SRRIPPolicy.MAX_RRPV - (set_index % 2)
        for slot in range(set_index * ways, (set_index + 1) * ways):
            policy._rrpv[slot] = rng.randint(0, top)
    reference = list(policy._rrpv)
    aged = 0
    for _ in range(3):
        for set_index in rng.sample(range(64), 64):
            base = set_index * ways
            aged += SRRIPPolicy.MAX_RRPV not in reference[base:base + ways]
            victim = policy.victim(base)
            assert victim == _reference_srrip_victim(reference, base, ways)
            assert list(policy._rrpv) == reference
            # Refill the victim's way, as the cache does.
            policy.on_fill(victim)
            reference[victim] = SRRIPPolicy.MAX_RRPV - 1
    assert aged >= 32


class _ReferenceLRUCache:
    """A cache that asks an :class:`LRUPolicy` on every hit, fill and
    eviction, as :class:`Cache` did before it stamped LRU slots inline."""

    def __init__(self, config):
        self.sets, self.ways = config.num_sets, config.ways
        self.line_bytes = config.line_bytes
        self.policy = LRUPolicy(self.sets, self.ways)
        self.tags = [-1] * (self.sets * self.ways)
        self.where = {}

    def access(self, addr):
        slot = self.where.get(addr // self.line_bytes)
        if slot is None:
            return False
        self.policy.on_hit(slot)
        return True

    def fill(self, addr):
        line = addr // self.line_bytes
        slot = self.where.get(line)
        if slot is not None:
            self.policy.on_hit(slot)
            return None
        base = (line % self.sets) * self.ways
        evicted = None
        if -1 in self.tags[base:base + self.ways]:
            slot = self.tags.index(-1, base)
        else:
            slot = self.policy.victim(base)
            evicted = self.tags[slot] * self.line_bytes
            del self.where[self.tags[slot]]
        self.tags[slot] = line
        self.where[line] = slot
        self.policy.on_fill(slot)
        return evicted

    def invalidate(self, addr):
        slot = self.where.pop(addr // self.line_bytes, None)
        if slot is not None:
            self.tags[slot] = -1
        return slot is not None


@pytest.mark.parametrize("seed", range(5))
def test_lru_cache_matches_policy_calls(seed):
    rng = random.Random(seed)
    config = CacheConfig(name="t", size_bytes=4096, ways=4,
                         latency_cycles=1, replacement="lru")
    cache, reference = Cache(config), _ReferenceLRUCache(config)
    for _ in range(3000):
        addr = rng.randrange(256) * config.line_bytes
        op = rng.random()
        if op < 0.45:
            assert cache.access(addr) == reference.access(addr)
        elif op < 0.9:
            evicted = cache.fill(addr)
            assert (evicted.addr if evicted else None) == reference.fill(addr)
        else:
            assert ((cache.invalidate(addr) is not None)
                    == reference.invalidate(addr))
        assert list(cache._tags) == reference.tags
        assert cache._policy._last_use == reference.policy._last_use
    assert cache.stats.evictions > 100


@pytest.mark.parametrize("build, llc_policy", [
    (lambda: System(SystemConfig.paper_default().with_llc(64.0)),
     SRRIPPolicy),
    (lambda: _sec33_system(64.0, ways=16), LRUPolicy),
], ids=["srrip-llc", "lru-llc-fig2"])
def test_per_slot_state_is_typed_and_dirty_bits_read_as_bools(build,
                                                              llc_policy):
    """A 64 MB LLC has 1M slots.  Its per-slot state holds no Python
    object per slot, so the garbage collector walks none: a bytearray
    refers to nothing, an array only to its type.  Dirty bits stored as
    bytes still read back as ``bool``."""
    hierarchy = build().hierarchy
    llc = hierarchy.llc
    assert isinstance(llc._policy, llc_policy)
    assert len(llc._tags) == 1 << 20
    for cache in (*hierarchy.l1, *hierarchy.l2, llc):
        sets, ways = cache.config.num_sets, cache.config.ways
        policy = cache._policy
        per_slot = [cache._tags, cache._dirty, policy._last_use
                    if isinstance(policy, LRUPolicy) else policy._rrpv]
        for state in per_slot:
            assert len(state) == sets * ways
            assert gc.get_referents(state) in ([], [array])
        assert len(cache._filled) == sets
        assert gc.get_referents(cache._filled) == [array]
    # Fill one LLC set, its first line dirty; both policies then evict in
    # fill order.
    stride = llc.config.num_sets * llc.config.line_bytes
    ways = llc.config.ways
    for k in range(ways):
        assert llc.fill(k * stride, dirty=k == 0) is None
    dirty_victim = llc.fill(ways * stride)
    assert dirty_victim.addr == 0
    assert dirty_victim.dirty is True
    clean_victim = llc.fill((ways + 1) * stride)
    assert clean_victim.addr == stride
    assert clean_victim.dirty is False
    assert llc.access(ways * stride, is_write=True)
    assert llc.invalidate(ways * stride) is True
    assert llc.invalidate(2 * stride) is False
    assert llc.invalidate(2 * stride) is None


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
