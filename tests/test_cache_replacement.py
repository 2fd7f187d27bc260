"""Unit tests for cache replacement: LRU and SRRIP.

:class:`Cache` keeps replacement state per flat slot (``set * ways +
way``) and picks victims only in full sets; it fills invalid ways itself.
"""

import gc
import itertools
import random
from array import array

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.cache import MAX_RRPV
from repro.config import SystemConfig
from repro.exp.figures import _sec33_system
from repro.system import System
from tests.helpers import resident_lines


def _cache(sets, ways, replacement):
    return Cache(CacheConfig(name="t", size_bytes=sets * ways * 64,
                             ways=ways, latency_cycles=1,
                             replacement=replacement))


def _set_lines(cache, set_index, count):
    """``count`` distinct line addresses that map to ``set_index``."""
    line_bytes = cache.config.line_bytes
    stride = cache.config.num_sets * line_bytes
    return [set_index * line_bytes + k * stride for k in range(count)]


def test_lru_evicts_oldest():
    cache = _cache(sets=2, ways=4, replacement="lru")
    set0, set1 = _set_lines(cache, 0, 5), _set_lines(cache, 1, 5)
    for addr in set0[:4] + set1[:4]:
        assert cache.fill(addr) is None
    assert cache.access(set0[0])  # way 0 of set 0 becomes most recent
    assert cache.fill(set0[4])[0] == set0[1]
    assert cache.fill(set1[4])[0] == set1[0]  # set 1 is untouched


@pytest.mark.parametrize("replacement", ["lru", "srrip"])
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
    assert resident_lines(cache, 0) == [0, stride, 4 * stride, 3 * stride]
    # The set is full again: the next fill evicts.
    assert cache.fill(5 * stride) is not None


def test_srrip_hit_promotes_to_zero():
    cache = _cache(sets=1, ways=2, replacement="srrip")
    a, b, c = _set_lines(cache, 0, 3)
    cache.fill(a)
    cache.fill(b)
    assert cache.access(a)
    # Way 0 has RRPV 0, way 1 has MAX-1; aging finds way 1 first.
    assert list(cache._rrpv) == [0, MAX_RRPV - 1]
    assert cache.fill(c)[0] == b


def test_srrip_can_retain_reused_line_against_fills():
    """The property that defeats naive eviction sets (Table 1): under
    SRRIP a re-used line survives ``ways`` single-use fills, which evict
    it under LRU."""
    for replacement, retained in (("srrip", True), ("lru", False)):
        cache = _cache(sets=1, ways=4, replacement=replacement)
        lines = _set_lines(cache, 0, 8)
        for addr in lines[:4]:
            cache.fill(addr)
        assert cache.access(lines[2])  # target line re-referenced
        for addr in lines[4:]:
            cache.fill(addr)
        assert cache.probe(lines[2]) is retained


def _reference_srrip_victim(rrpv, base, ways, max_rrpv=MAX_RRPV):
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
    sets, ways = 64, 8
    cache = _cache(sets, ways, "srrip")
    line_bytes = cache.config.line_bytes
    # Lines 0 .. sets*ways-1 fill every way of every set.
    for line in range(sets * ways):
        assert cache.fill(line * line_bytes) is None
    # Half the rows have no way at the maximum, so the fill must age them.
    for set_index in range(sets):
        top = MAX_RRPV - (set_index % 2)
        for slot in range(set_index * ways, (set_index + 1) * ways):
            cache._rrpv[slot] = rng.randint(0, top)
    reference = list(cache._rrpv)
    aged = 0
    for round_ in range(3):
        for set_index in rng.sample(range(sets), sets):
            base = set_index * ways
            aged += MAX_RRPV not in reference[base:base + ways]
            victim = _reference_srrip_victim(reference, base, ways)
            old_addr = cache._tags[victim] * line_bytes
            line = (ways + round_) * sets + set_index
            assert cache.fill(line * line_bytes)[0] == old_addr
            assert cache._where[line] == victim
            # The fill inserts the new line at MAX-1.
            reference[victim] = MAX_RRPV - 1
            assert list(cache._rrpv) == reference
    assert aged >= 32


class _ReferenceLRUCache:
    """LRU written plainly: a cache that makes one policy call per hit,
    fill and eviction, on stamps of its own in a list, and evicts the
    lowest stamp.  :class:`Cache` keeps a recency order per set instead
    and must agree with it: the same victims, and each set's order equal
    to its valid slots sorted by stamp."""

    def __init__(self, config):
        self.sets, self.ways = config.num_sets, config.ways
        self.line_bytes = config.line_bytes
        self.next_stamp = itertools.count(1).__next__
        self.last_use = [0] * (self.sets * self.ways)
        self.tags = [-1] * (self.sets * self.ways)
        self.where = {}

    def on_hit(self, slot):
        self.last_use[slot] = self.next_stamp()

    on_fill = on_hit

    def victim(self, base):
        uses = self.last_use[base:base + self.ways]
        return base + uses.index(min(uses))

    def access(self, addr):
        slot = self.where.get(addr // self.line_bytes)
        if slot is None:
            return False
        self.on_hit(slot)
        return True

    def fill(self, addr):
        line = addr // self.line_bytes
        slot = self.where.get(line)
        if slot is not None:
            self.on_hit(slot)
            return None
        base = (line % self.sets) * self.ways
        evicted = None
        if -1 in self.tags[base:base + self.ways]:
            slot = self.tags.index(-1, base)
        else:
            slot = self.victim(base)
            evicted = self.tags[slot] * self.line_bytes
            del self.where[self.tags[slot]]
        self.tags[slot] = line
        self.where[line] = slot
        self.on_fill(slot)
        return evicted

    def invalidate(self, addr):
        slot = self.where.pop(addr // self.line_bytes, None)
        if slot is not None:
            self.tags[slot] = -1
        return slot is not None


def _recency_by_stamp(reference, set_index):
    """The reference's valid slots of ``set_index``, least recent first."""
    base = set_index * reference.ways
    valid = [slot for slot in range(base, base + reference.ways)
             if reference.tags[slot] >= 0]
    return sorted(valid, key=reference.last_use.__getitem__)


# (seed, sets, ways, lines): a 4-way cache, and a 128-way one like
# Fig. 3's widest LLC.  Each draws from more lines than it holds, so its
# sets fill and evict.
@pytest.mark.parametrize("seed, sets, ways, lines", [
    *(pytest.param(seed, 16, 4, 256, id=str(seed)) for seed in range(5)),
    *(pytest.param(seed, 2, 128, 640, id=f"128-way-{seed}")
      for seed in range(5)),
])
def test_lru_cache_matches_policy_calls(seed, sets, ways, lines):
    rng = random.Random(seed)
    config = CacheConfig(name="t", size_bytes=sets * ways * 64, ways=ways,
                         latency_cycles=1, replacement="lru")
    cache, reference = Cache(config), _ReferenceLRUCache(config)
    for _ in range(3000):
        addr = rng.randrange(lines) * config.line_bytes
        op = rng.random()
        if op < 0.45:
            assert cache.access(addr) == reference.access(addr)
        elif op < 0.9:
            evicted = cache.fill(addr)
            assert (evicted[0] if evicted else None) == reference.fill(addr)
        else:
            assert ((cache.invalidate(addr) is not None)
                    == reference.invalidate(addr))
        assert list(cache._tags) == reference.tags
        for set_index, order in enumerate(cache._order):
            assert (list(order or ())
                    == _recency_by_stamp(reference, set_index))
    assert cache.stats.evictions > 100
    assert not any(gc.is_tracked(order) for order in cache._order)


@pytest.mark.parametrize("build, llc_replacement", [
    (lambda: System(SystemConfig.paper_default().with_llc(64.0)), "srrip"),
    (lambda: _sec33_system(64.0, ways=16), "lru"),
], ids=["srrip-llc", "lru-llc-fig2"])
def test_per_slot_state_is_typed_and_dirty_bits_read_as_bools(
        build, llc_replacement):
    """A 64 MB LLC has 1M slots.  Its per-slot state holds no Python
    object per slot, so the garbage collector walks none: a bytearray
    refers to nothing, an array only to its type.  Dirty bits stored as
    bytes still read back as ``bool``.  Every cache, LRU or SRRIP, has
    the same attributes in the same order."""
    hierarchy = build().hierarchy
    llc = hierarchy.llc
    assert llc.config.replacement == llc_replacement
    assert len(llc._tags) == 1 << 20
    layout = list(vars(hierarchy.l1[0]))
    for cache in (*hierarchy.l1, *hierarchy.l2, llc):
        assert list(vars(cache)) == layout
        sets, ways = cache.config.num_sets, cache.config.ways
        lru = cache.config.replacement == "lru"
        assert (cache._rrpv if lru else cache._order) is None
        if lru:
            assert cache._order == [None] * sets
        per_slot = [cache._tags, cache._dirty] + ([] if lru else [cache._rrpv])
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
    assert dirty_victim[0] == 0
    assert dirty_victim[1] is True
    clean_victim = llc.fill((ways + 1) * stride)
    assert clean_victim[0] == stride
    assert clean_victim[1] is False
    assert llc.access(ways * stride, is_write=True)
    assert llc.invalidate(ways * stride) is True
    assert llc.invalidate(2 * stride) is False
    assert llc.invalidate(2 * stride) is None
    # LRU's fills created one order dict, for set 0, least recent first;
    # it holds only ints and None, so the garbage collector does not
    # track it.
    if llc._order is not None:
        orders = [order for order in llc._order if order is not None]
        assert [list(order) for order in orders] == [[*range(3, ways), 1]]
        assert not any(gc.is_tracked(order) for order in orders)


def test_config_accepts_only_lru_and_srrip():
    lru, srrip = _cache(4, 2, "lru"), _cache(4, 2, "srrip")
    assert lru._order == [None] * 4 and lru._rrpv is None
    assert len(srrip._rrpv) == 8 and srrip._order is None
    for name in ("random", "fifo"):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            CacheConfig(name="t", size_bytes=512, ways=2, latency_cycles=1,
                        replacement=name)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError, match="ways must be >= 1"):
        CacheConfig(name="t", size_bytes=512, ways=0, latency_cycles=1)
