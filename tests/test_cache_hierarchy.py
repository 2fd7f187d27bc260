"""Integration tests: cache hierarchy over the memory controller."""

import random
from collections import Counter

import pytest

from repro.cache import CacheConfig, CacheHierarchy, HierarchyConfig
from repro.dram import DRAMGeometry, MemoryController, MemoryControllerConfig
from repro.dram.bank import Bank
from repro.obs import Observer
from tests.helpers import set_index_of
from tests.test_batching_fastpath import _hierarchy_state

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)


def make_hierarchy(**kwargs):
    defaults = dict(num_cores=2, llc_size_mb=2.0, prefetchers_enabled=False)
    defaults.update(kwargs)
    config = HierarchyConfig(**defaults)
    controller = MemoryController(MemoryControllerConfig(geometry=GEOM))
    return CacheHierarchy(config, controller)


def test_cold_access_reaches_memory():
    h = make_hierarchy()
    result = h.access(core=0, addr=0x10000, issued=0)
    assert result.hit_level == 0
    assert result.mem is not None
    assert result.latency > h.config.l1_latency + h.config.l2_latency


def test_warm_access_hits_l1():
    h = make_hierarchy()
    h.access(core=0, addr=0x10000, issued=0)
    result = h.access(core=0, addr=0x10000, issued=1000)
    assert result.hit_level == 1
    assert result.latency == h.config.l1_latency


def test_latency_ordering_by_hit_level():
    """Deeper hits cost strictly more — the §3.2 lookup-latency tax."""
    h = make_hierarchy()
    cold = h.access(core=0, addr=0x20000, issued=0)
    l1 = h.access(core=0, addr=0x20000, issued=10_000)
    # Touch from the other core: it misses L1/L2 but hits shared LLC.
    llc = h.access(core=1, addr=0x20000, issued=20_000)
    assert l1.latency < llc.latency < cold.latency
    assert llc.hit_level == 3


def test_shared_llc_between_cores():
    h = make_hierarchy()
    h.access(core=0, addr=0x30000, issued=0)
    result = h.access(core=1, addr=0x30000, issued=5000)
    assert result.hit_level == 3


def test_clflush_removes_from_all_levels():
    h = make_hierarchy()
    h.access(core=0, addr=0x40000, issued=0)
    h.clflush(core=0, addr=0x40000, issued=1000)
    result = h.access(core=0, addr=0x40000, issued=2000)
    assert result.hit_level == 0


def test_clflush_clean_line_costs_llc_lookup_only():
    h = make_hierarchy()
    h.access(core=0, addr=0x40000, issued=0)
    flush = h.clflush(core=0, addr=0x40000, issued=1000)
    assert flush.latency == h.llc.latency_cycles
    assert flush.writebacks == 0


def test_clflush_dirty_line_pays_writeback():
    """§3.2: clflush puts the write-back latency on the critical path."""
    h = make_hierarchy()
    h.access(core=0, addr=0x40000, issued=0, is_write=True)
    flush = h.clflush(core=0, addr=0x40000, issued=1000)
    assert flush.writebacks == 1
    assert flush.latency > h.llc.latency_cycles


def test_clflush_flushes_other_cores_copies():
    h = make_hierarchy()
    h.access(core=0, addr=0x50000, issued=0)
    h.access(core=1, addr=0x50000, issued=100)
    h.clflush(core=0, addr=0x50000, issued=1000)
    result = h.access(core=1, addr=0x50000, issued=2000)
    assert result.hit_level == 0


def test_inclusive_llc_back_invalidates_upper_levels():
    """Evicting a line from the LLC must evict it from L1/L2 too —
    otherwise eviction-set attacks could never push a victim to DRAM."""
    h = make_hierarchy(llc_size_mb=1.0 / 16)  # tiny 64 KB LLC, 16 ways
    target = 0x0
    h.access(core=0, addr=target, issued=0)
    assert h.l1[0].probe(target)
    for i, addr in enumerate(h.build_eviction_set(target, size=64)):
        h.access(core=0, addr=addr, issued=1000 + 1000 * i)
    assert not h.llc.probe(target)
    assert not h.l1[0].probe(target)
    result = h.access(core=0, addr=target, issued=10_000_000)
    assert result.hit_level == 0


def test_build_eviction_set_same_llc_set():
    h = make_hierarchy()
    target = 0x12340
    eviction_set = h.build_eviction_set(target)
    assert len(eviction_set) == h.config.llc_ways
    target_set = set_index_of(h.llc, target)
    line_bytes = h.llc.config.line_bytes
    for addr in eviction_set:
        assert set_index_of(h.llc, addr) == target_set
        assert addr // line_bytes != target // line_bytes


def test_build_eviction_set_raises_when_dram_holds_too_few_lines():
    """A 1 MiB DRAM under the paper's 8 MB LLC holds two lines of each LLC
    set: a line has one other line to build its eviction set from."""
    controller = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=2, rows_per_bank=64)))
    h = CacheHierarchy(HierarchyConfig(), controller)
    assert controller.config.geometry.capacity_bytes == 2 * h.llc_set_stride()
    target = 0x12340
    assert h.build_eviction_set(target, size=1) == [
        target + h.llc_set_stride()]
    with pytest.raises(ValueError, match="1 lines .* fewer than the 2"):
        h.build_eviction_set(target, size=2)
    with pytest.raises(ValueError, match="fewer than the 16 requested"):
        h.build_eviction_set(target)


def test_nt_access_bypass_probability_zero_uses_caches():
    h = make_hierarchy(nt_bypass_probability=0.0)
    h.access(core=0, addr=0x60000, issued=0)
    result = h.nt_access(core=0, addr=0x60000, issued=1000)
    assert not result.bypassed
    assert result.hit_level == 1


def test_nt_access_bypass_probability_one_goes_direct():
    h = make_hierarchy(nt_bypass_probability=1.0)
    h.access(core=0, addr=0x60000, issued=0)
    result = h.nt_access(core=0, addr=0x60000, issued=1000)
    assert result.bypassed
    assert result.mem is not None


def test_nt_access_unreliable_at_intermediate_probability():
    """Table 1: NT hints give no ISA guarantee — some accesses bypass,
    some do not."""
    h = make_hierarchy(nt_bypass_probability=0.5)
    outcomes = set()
    for i in range(64):
        result = h.nt_access(core=0, addr=0x70000 + 64 * i, issued=i * 1000)
        outcomes.add(result.bypassed)
    assert outcomes == {True, False}


def test_nt_accesses_counted_per_requestor_bypassed_or_not():
    """The PMU view counts every NT access, as the hierarchy total does,
    not only the ones that happened to bypass."""
    h = make_hierarchy()
    for i in range(200):
        h.nt_access(core=0, addr=0x80000 + 64 * i, issued=i * 1000,
                    requestor="spy")
    h.access(core=0, addr=0x80000, issued=300_000, requestor="spy")
    counters = h.stats.by_requestor["spy"]
    assert 0 < h.stats.nt_bypasses < 200
    assert counters.nt_accesses == h.stats.nt_accesses == 200
    assert counters.accesses == 201


def test_prefetcher_generates_memory_traffic():
    controller = MemoryController(MemoryControllerConfig(geometry=GEOM))
    h = CacheHierarchy(HierarchyConfig(num_cores=1, llc_size_mb=2.0,
                                       prefetchers_enabled=True), controller)
    # A strided stream from one PC trains the IP-stride prefetcher.
    for i in range(8):
        h.access(core=0, addr=0x100000 + i * 64, issued=i * 1000, pc=0x400)
    assert h.stats.prefetches_issued > 0


def test_dirty_writeback_reaches_memory_controller():
    h = make_hierarchy(llc_size_mb=1.0 / 16)
    target = 0x0
    h.access(core=0, addr=target, issued=0, is_write=True)
    for i, addr in enumerate(h.build_eviction_set(target, size=64)):
        h.access(core=0, addr=addr, issued=1000 + 1000 * i)
    assert h.stats.memory_writebacks >= 1


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        HierarchyConfig(num_cores=0)
    with pytest.raises(ValueError):
        HierarchyConfig(nt_bypass_probability=1.5)
    # A line size below one byte leaves a cache with no slots.
    with pytest.raises(ValueError):
        CacheConfig("x", 4096, 4, 1, line_bytes=-64)
    with pytest.raises(ValueError):
        make_hierarchy(line_bytes=0)


# ---------------------------------------------------------------------------
# The fused demand path against the per-level sequence
# ---------------------------------------------------------------------------

def _fill_l1(h, core, addr, is_write, seen):
    victim = h.l1[core].fill(addr, dirty=is_write)
    if victim is not None and victim[1]:
        seen["l1 victim written into L2"] += 1
        h.l2[core].fill(victim[0], dirty=True)
        return 1
    return 0


def _fill_upper(h, core, addr, is_write, seen):
    writebacks = 0
    victim = h.l2[core].fill(addr)
    if victim is not None and victim[1]:
        seen["l2 victim written into the LLC"] += 1
        h.llc.fill(victim[0], dirty=True)
        writebacks += 1
    return writebacks + _fill_l1(h, core, addr, is_write, seen)


def _fill_all(h, core, addr, is_write, time, requestor, seen):
    writebacks = 0
    victim = h.llc.fill(addr)
    if victim is not None:
        writebacks += _handle_llc_eviction(h, victim, time, requestor, seen)
    return writebacks + _fill_upper(h, core, addr, is_write, seen)


def _handle_llc_eviction(h, victim, time, requestor, seen):
    addr, dirty = victim
    for cache in (*h.l1, *h.l2):
        was_dirty = cache.invalidate(addr)
        if was_dirty is not None:
            seen["back-invalidation"] += 1
        if was_dirty:
            dirty = True
    if not dirty:
        return 0
    seen["DRAM write-back"] += 1
    h.controller.access_finish(addr, time, requestor=requestor,
                               is_write=True)
    h.stats.memory_writebacks += 1
    if h._obs is not None:
        h._obs.on_cache_writeback(addr, time, requestor)
    return 1


def _issue_prefetches(h, core, lines, time, requestor, seen):
    line_bytes = h.config.line_bytes
    inflight = h._inflight_fills
    for line in lines:
        line_addr = line * line_bytes
        if h.llc.probe(line_addr):
            continue
        inflight[line_addr] = h.controller.access_finish(
            line_addr, time, requestor=f"{requestor}-pf")
        while len(inflight) > 512:
            del inflight[next(iter(inflight))]
        victim = h.llc.fill(line_addr)
        if victim is not None:
            _handle_llc_eviction(h, victim, time, requestor, seen)
        h.l2[core].fill(line_addr)
        h.stats.prefetches_issued += 1


def _reference_demand(h, core, addr, issued, is_write, pc, requestor,
                      prefetch_lines, seen):
    """``CacheHierarchy.demand`` as one ``Cache.access`` per level and the
    fill helpers the hierarchy had before its fused pass: ``_fill_l1``,
    ``_fill_upper``, ``_fill_all`` and ``_handle_llc_eviction``, which
    invalidates the victim in every upper cache."""
    config = h.config
    h.stats.demand_accesses += 1
    latency = config.l1_latency
    completion = h._inflight_fills.pop(addr - addr % config.line_bytes, None)
    if completion is not None:
        seen["late prefetch"] += 1
        h.stats.late_prefetch_stalls += 1
        latency += max(0, completion - issued)
    mem = None
    writebacks = 0
    if h.l1[core].access(addr, is_write):
        hit_level = 1
    else:
        latency += config.l2_latency
        if h.l2[core].access(addr):
            hit_level = 2
            writebacks = _fill_l1(h, core, addr, is_write, seen)
        else:
            latency += h.llc.latency_cycles
            if h.llc.access(addr):
                hit_level = 3
                writebacks = _fill_upper(h, core, addr, is_write, seen)
            else:
                hit_level = 0
                mem = h.controller.access(addr, issued + latency,
                                          requestor=requestor,
                                          is_write=is_write)
                latency = mem.finish - issued
                writebacks = _fill_all(h, core, addr, is_write, mem.finish,
                                       requestor, seen)
                if h._obs is not None:
                    h._obs.on_cache_miss(core, addr, issued, mem.finish,
                                         requestor)
    h.stats.observe(requestor, issued, miss=not hit_level)
    if prefetch_lines is None:
        capacity = h.controller.config.geometry.capacity_bytes
        candidates = []
        for prefetcher in h._prefetchers[core]:
            candidates += prefetcher.observe(pc, addr)
        prefetch_lines = [candidate // config.line_bytes
                          for candidate in candidates
                          if 0 <= candidate < capacity]
    if any(not h.llc.probe(line * config.line_bytes)
           for line in prefetch_lines):
        _issue_prefetches(h, core, prefetch_lines, issued + latency,
                          requestor, seen)
    return latency, hit_level, mem, writebacks


class _RecordingObserver(Observer):
    """Every DRAM and cache event in order, live banks left out."""

    def __init__(self):
        self.events = []


def _recorder(name):
    def hook(self, *args):
        self.events.append(
            (name, *(arg for arg in args if not isinstance(arg, Bank))))
    return hook


for _hook in ("on_dram_access", "on_precharge", "on_refresh",
              "on_cache_miss", "on_cache_writeback"):
    setattr(_RecordingObserver, _hook, _recorder(_hook))


def _observed_hierarchy(cores, l1_replacement, prefetchers):
    """Caches of 16, 32 and 128 lines, so that every kind of victim
    occurs within a few hundred accesses."""
    h = make_hierarchy(num_cores=cores, l1_size_kb=1, l1_ways=2,
                       l1_replacement=l1_replacement, l2_size_kb=2,
                       l2_ways=4, llc_size_mb=8 / 1024, llc_ways=8,
                       llc_latency=20, prefetchers_enabled=prefetchers)
    observer = _RecordingObserver()
    h.set_observer(observer)
    h.controller.set_observer(observer)
    return h, observer


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("l1_replacement", ["lru", "srrip"])
@pytest.mark.parametrize("prefetch", ["online", "lines", "off"])
def test_demand_matches_per_level_reference(cores, l1_replacement, prefetch):
    """Random reads and writes through ``demand`` and through the
    reference leave identical results, caches, prefetchers, in-flight
    fills, stats, DRAM and observed events, access by access."""
    rng = random.Random(f"{cores}-{l1_replacement}-{prefetch}")
    fused, fused_events = _observed_hierarchy(cores, l1_replacement,
                                              prefetch != "off")
    reference, reference_events = _observed_hierarchy(cores, l1_replacement,
                                                      prefetch != "off")
    seen = Counter()
    lines = 600
    cursors = [rng.randrange(lines) for _ in range(4)]
    now = 0
    for _ in range(1500):
        core = rng.randrange(cores)
        pc = rng.randrange(4)
        if rng.random() < 0.6:
            # Strided per-pc streams train both prefetchers.
            cursors[pc] = (cursors[pc] + pc + 1) % lines
            line = cursors[pc]
        else:
            line = rng.randrange(lines)
        addr = line * 64 + rng.randrange(64)
        is_write = rng.random() < 0.3
        requestor = rng.choice(("cpu", "spy"))
        prefetch_lines = None
        if prefetch == "lines":
            prefetch_lines = [rng.randrange(lines)
                              for _ in range(rng.randrange(4))]
        result = fused.demand(core, addr, now, is_write, pc, requestor,
                              prefetch_lines)
        expected = _reference_demand(reference, core, addr, now, is_write,
                                     pc, requestor, prefetch_lines, seen)
        assert result == expected
        assert _hierarchy_state(fused) == _hierarchy_state(reference)
        now += rng.randrange(result[0] + 1)
    assert fused.controller.requestor_stats == (
        reference.controller.requestor_stats)
    assert ([vars(bank) for bank in fused.controller.device.banks]
            == [vars(bank) for bank in reference.controller.device.banks])
    assert fused_events.events == reference_events.events
    # Every victim path ran.
    for kind in ("l1 victim written into L2", "l2 victim written into the LLC",
                 "back-invalidation", "DRAM write-back"):
        assert seen[kind] > 0, kind
    if prefetch == "off":
        assert fused.stats.prefetches_issued == 0
    else:
        assert fused.stats.prefetches_issued > 0 and seen["late prefetch"] > 0
