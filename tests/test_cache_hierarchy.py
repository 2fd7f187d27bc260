"""Integration tests: cache hierarchy over the memory controller."""

import pytest

from repro.cache import CacheHierarchy, HierarchyConfig
from repro.dram import DRAMGeometry, MemoryController, MemoryControllerConfig

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
    target_set = h.llc.set_index_of(target)
    for addr in eviction_set:
        assert h.llc.set_index_of(addr) == target_set
        assert h.llc.line_of(addr) != h.llc.line_of(target)


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
