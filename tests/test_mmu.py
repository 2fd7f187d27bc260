"""Unit tests for TLBs, the page-table walker, and the MMU."""

import pytest

from repro.cache import CacheHierarchy, HierarchyConfig
from repro.dram import DRAMGeometry, MemoryController, MemoryControllerConfig
from repro.mmu import MMU, MMUConfig, PageTableWalker, TLB, TLBConfig

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)


def make_hierarchy():
    controller = MemoryController(MemoryControllerConfig(geometry=GEOM))
    return CacheHierarchy(HierarchyConfig(num_cores=1, llc_size_mb=2.0,
                                          prefetchers_enabled=False), controller)


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------

def test_tlb_miss_then_fill_then_hit():
    tlb = TLB(TLBConfig())
    assert not tlb.lookup(0x1000)
    tlb.fill(0x1000)
    assert tlb.lookup(0x1234)  # same 4K page
    assert not tlb.lookup(0x2000)


def test_tlb_lru_eviction_within_set():
    config = TLBConfig(entries=4, ways=2)  # 2 sets
    tlb = TLB(config)
    pages = [0, 2, 4]  # all map to set 0
    tlb.fill(pages[0] * 4096)
    tlb.fill(pages[1] * 4096)
    tlb.lookup(pages[0] * 4096)  # page 0 most recent
    evicted = tlb.fill(pages[2] * 4096)
    assert evicted == 2


def test_tlb_huge_page_granularity():
    tlb = TLB(TLBConfig(name="2M", entries=32, ways=4,
                        page_bytes=2 * 1024 * 1024))
    tlb.fill(0x0)
    assert tlb.lookup(2 * 1024 * 1024 - 1)
    assert not tlb.lookup(2 * 1024 * 1024)


def test_tlb_config_validation():
    with pytest.raises(ValueError):
        TLBConfig(entries=5, ways=2)
    with pytest.raises(ValueError):
        TLBConfig(page_bytes=3000)


# ---------------------------------------------------------------------------
# Page-table walker
# ---------------------------------------------------------------------------

def test_walker_issues_four_level_walk():
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000)
    before = h.stats.demand_accesses
    latency = walker.walk(core=0, vaddr=0x12345000, issued=0)
    assert h.stats.demand_accesses - before == 4
    assert latency > 0
    assert walker.walks == 1


def test_walker_entry_addresses_deterministic_and_in_region():
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000, table_bytes=1 << 20)
    addrs = walker.entry_addresses(0xABCDE000)
    assert addrs == walker.entry_addresses(0xABCDE000)
    for addr in addrs:
        assert 0x200000 <= addr < 0x200000 + (1 << 20)


def test_walker_warm_walk_is_cheaper():
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000)
    cold = walker.walk(core=0, vaddr=0x777000, issued=0)
    warm = walker.walk(core=0, vaddr=0x777000, issued=100_000)
    assert warm < cold


# ---------------------------------------------------------------------------
# MMU
# ---------------------------------------------------------------------------

def test_mmu_l1_hit_is_one_cycle():
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000)
    mmu = MMU(MMUConfig(), walker, core=0)
    mmu.translate(0x5000, issued=0)
    result = mmu.translate(0x5000, issued=10_000)
    assert result.l1_hit
    assert result.latency == 1


def test_mmu_miss_walks_and_fills():
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000)
    mmu = MMU(MMUConfig(), walker, core=0)
    result = mmu.translate(0x9000, issued=0)
    assert result.walked
    assert result.latency > 13  # 1 (L1) + 12 (L2) + walk
    assert result.paddr == 0x9000


def test_mmu_l2_hit_path():
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000)
    mmu = MMU(MMUConfig(), walker, core=0)
    mmu.translate(0x9000, issued=0)
    # Evict page 9 from the L1 TLB: fill its set with other pages.
    l1 = mmu.l1_4k
    for k in range(1, l1.config.ways + 1):
        l1.fill((9 + k * l1.config.num_sets) * 4096)
    result = mmu.translate(0x9000, issued=10_000)
    assert result.l2_hit and not result.walked
    assert result.latency == 13


def test_mmu_warm_up_prefills():
    """The attacks' warm-up (§5.1) removes page-walk noise."""
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000)
    mmu = MMU(MMUConfig(), walker, core=0)
    mmu.warm_up([0x1000, 0x2000])
    assert mmu.translate(0x1000, issued=0).l1_hit
    assert mmu.translate(0x2000, issued=0).l1_hit
    assert walker.walks == 0


def test_mmu_huge_pages_use_2m_tlb():
    h = make_hierarchy()
    walker = PageTableWalker(h, table_base=0x200000)
    mmu = MMU(MMUConfig(), walker, core=0, huge_pages=True)
    mmu.translate(0x0, issued=0)
    result = mmu.translate(0x1FFFFF, issued=1000)  # same 2M page
    assert result.l1_hit
