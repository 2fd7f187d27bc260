"""Depth tests: cross-module behaviours not covered by the unit suites."""

from dataclasses import replace

import pytest

from repro import System, SystemConfig
from repro.attacks import (
    ChannelResult,
    DramaClflushChannel,
    ImpactPnmChannel,
    ImpactPumChannel,
)
from repro.cache import CacheHierarchy, HierarchyConfig
from repro.dram import (
    AccessKind,
    DRAMGeometry,
    MemoryController,
    MemoryControllerConfig,
    RowPolicy,
)
from repro.sim import Scheduler


def small_config(**overrides):
    cfg = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# Hierarchy: write paths and prefetch-stall coupling
# ---------------------------------------------------------------------------

def test_store_dirties_through_levels_and_writes_back():
    controller = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)))
    h = CacheHierarchy(HierarchyConfig(num_cores=1, llc_size_mb=1.0 / 16,
                                       prefetchers_enabled=False), controller)
    h.access(core=0, addr=0x0, issued=0, is_write=True)
    writes_before = controller.requestor_stats.get("cpu")
    # Evict the dirty line out of the tiny LLC.
    for i, addr in enumerate(h.build_eviction_set(0x0, size=64)):
        h.access(core=0, addr=addr, issued=1000 * (i + 1))
    assert h.stats.memory_writebacks >= 1
    assert controller.requestor_stats["cpu"].writes >= 1


def test_late_prefetch_stall_charged_once():
    controller = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)))
    h = CacheHierarchy(HierarchyConfig(num_cores=1, llc_size_mb=2.0,
                                       prefetchers_enabled=True), controller)
    # Train the streamer, then demand the prefetched line immediately.
    base = 0x200000
    for i in range(4):
        h.access(core=0, addr=base + i * 64, issued=i * 10, pc=0x400)
    stalls_before = h.stats.late_prefetch_stalls
    first = h.access(core=0, addr=base + 4 * 64, issued=45, pc=0x400)
    if h.stats.late_prefetch_stalls > stalls_before:
        # The stalled access waited for the in-flight fill...
        assert first.hit_level in (2, 3)
        # ...and a re-access later is an ordinary fast hit.
        again = h.access(core=0, addr=base + 4 * 64, issued=100_000, pc=0x400)
        assert again.latency <= first.latency


def test_hierarchy_rebase_clears_inflight_fills():
    controller = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)))
    h = CacheHierarchy(HierarchyConfig(num_cores=1, llc_size_mb=2.0,
                                       prefetchers_enabled=True), controller)
    for i in range(6):
        h.access(core=0, addr=0x300000 + i * 64, issued=i * 10, pc=0x404)
    h.rebase_time()
    assert not h._inflight_fills


# ---------------------------------------------------------------------------
# Controller: defense interactions with PiM operations
# ---------------------------------------------------------------------------

def test_ctd_pads_rowclone_latencies_flat():
    mc = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        constant_time=True))
    src = mc.address_of(bank=0, row=10)
    dst = mc.address_of(bank=0, row=20)
    latencies = set()
    now = 0
    for _ in range(4):
        results = mc.rowclone(src, dst, 0b1, issued=now)
        latencies.add(results[0].latency)
        now = results[0].finish + 1000
    assert len(latencies) == 1


def test_crp_closes_rows_after_rowclone():
    mc = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        row_policy=RowPolicy.CLOSED))
    src = mc.address_of(bank=0, row=10)
    dst = mc.address_of(bank=0, row=20)
    mc.rowclone(src, dst, 0b11, issued=0)
    assert mc.open_rows()[0] is None
    assert mc.open_rows()[1] is None


def test_partitioning_covers_rowclone_and_activate():
    from repro.dram import PartitionViolationError
    mc = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)))
    mc.partition_banks("victim", [0, 1])
    src = mc.address_of(bank=0, row=10)
    with pytest.raises(PartitionViolationError):
        mc.rowclone(src, src, 0b1, issued=0, requestor="attacker")
    with pytest.raises(PartitionViolationError):
        mc.activate(bank_index=1, row=3, issued=0, requestor="attacker")


# ---------------------------------------------------------------------------
# Channels under defended / noisy systems
# ---------------------------------------------------------------------------

def test_pum_channel_dies_under_ctd():
    channel = ImpactPumChannel(System(small_config().with_defense("ctd")))
    result = channel.transmit_random(96, seed=3)
    assert abs(result.error_rate - 0.5) < 0.2


def test_pum_channel_with_noise_still_useful():
    channel = ImpactPumChannel(System(small_config().with_noise(1.0)))
    result = channel.transmit_random(192, seed=3)
    assert result.error_rate < 0.2
    assert result.throughput_mbps > 5.0


def test_drama_channel_with_prefetchers_enabled():
    """Prefetchers are on in Table 2; the single-bank DRAMA protocol must
    tolerate their stray traffic."""
    cfg = small_config()
    cfg = replace(cfg, hierarchy=replace(cfg.hierarchy,
                                         prefetchers_enabled=True))
    result = DramaClflushChannel(System(cfg)).transmit_random(96, seed=4)
    assert result.error_rate < 0.15


def test_impact_channels_in_one_process_space():
    """PnM and PuM channels on the same system, sequentially: the second
    transmission is unaffected by the first's residual row state."""
    system = System(small_config())
    first = ImpactPnmChannel(system).transmit_random(64, seed=5)
    second = ImpactPumChannel(system).transmit_random(64, seed=6)
    assert first.error_rate == 0.0
    assert second.error_rate == 0.0


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_describe_reflects_overrides():
    cfg = small_config().with_llc(16.0).with_defense("crp")
    rows = {r["component"]: r["configuration"] for r in cfg.describe()}
    assert "closed-row policy" in rows["Main Memory"]
    assert "8 MB/core" in rows["L3 Cache"]  # 16 MB over 2 cores


def test_noise_config_validation():
    with pytest.raises(ValueError):
        small_config().with_noise(-1.0)


def test_channel_result_probe_latency_bookkeeping():
    result = ChannelResult(attack="t", sent=[1, 0], received=[1, 0],
                           cycles=100, cpu_hz=2.6e9,
                           probe_latencies=[180, 90])
    assert result.probe_latencies == [180, 90]
    with pytest.raises(ValueError):
        ChannelResult(attack="t", sent=[1], received=[1], cycles=-1,
                      cpu_hz=2.6e9)
