"""Integration tests for the baseline channels: DRAMA, DMA, PnM-OffChip,
Streamline/analytical, §3.3 attacks, and Table 1 primitives."""

from dataclasses import replace

import pytest

from repro import System, SystemConfig
from repro.attacks import (
    TABLE1,
    BaselineEvictionAttack,
    DirectAccessAttack,
    DmaEngineChannel,
    DramaClflushChannel,
    DramaEvictionChannel,
    ImpactPnmChannel,
    PnmOffchipChannel,
    measure_all,
    run_sec33_point,
    streamline_upper_bound_mbps,
)
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry


def small_config(mapping="row", llc_mb=2.0, llc_replacement="srrip"):
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        mapping=mapping,
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=llc_mb,
                                  llc_replacement=llc_replacement,
                                  prefetchers_enabled=False))


# ---------------------------------------------------------------------------
# DRAMA
# ---------------------------------------------------------------------------

def test_drama_clflush_transmits_correctly():
    channel = DramaClflushChannel(System(small_config()))
    result = channel.transmit_random(96, seed=2)
    assert result.error_rate == 0.0


def test_drama_clflush_much_slower_than_impact():
    """§5.3: IMPACT-PnM is up to ~4.9x faster than DRAMA-clflush."""
    cfg = SystemConfig.paper_default()
    drama = DramaClflushChannel(System(cfg)).transmit_random(128, seed=1)
    pnm = ImpactPnmChannel(System(cfg)).transmit_random(128, seed=1)
    assert pnm.throughput_mbps / drama.throughput_mbps > 3.5


def test_drama_clflush_degrades_with_llc_size():
    """Fig. 8: cache-mediated channels slow down as the LLC grows."""
    small = DramaClflushChannel(System(small_config(llc_mb=2.0))) \
        .transmit_random(96, seed=1)
    large = DramaClflushChannel(System(small_config(llc_mb=32.0))) \
        .transmit_random(96, seed=1)
    assert large.throughput_mbps < small.throughput_mbps


def test_drama_eviction_needs_xor_mapping():
    """Bank-safe eviction sets cannot exist when the LLC set index pins the
    bank (row-interleaved power-of-two geometry)."""
    with pytest.raises(ValueError):
        DramaEvictionChannel(System(small_config(mapping="row")))


def test_drama_eviction_transmits_with_low_errors():
    channel = DramaEvictionChannel(System(small_config(mapping="xor")))
    result = channel.transmit_random(64, seed=2)
    # Eviction is probabilistic under SRRIP (Table 1): a small error rate
    # is expected, collapse is not.
    assert result.error_rate < 0.25


def test_drama_eviction_slower_than_clflush():
    ev = DramaEvictionChannel(System(small_config(mapping="xor"))) \
        .transmit_random(64, seed=1)
    fl = DramaClflushChannel(System(small_config(mapping="xor"))) \
        .transmit_random(64, seed=1)
    assert ev.throughput_mbps < fl.throughput_mbps


def test_drama_rows_must_differ():
    with pytest.raises(ValueError):
        DramaClflushChannel(System(small_config()), sender_row=5,
                            receiver_row=5)


# ---------------------------------------------------------------------------
# DMA engine
# ---------------------------------------------------------------------------

def test_dma_channel_transmits_with_modest_errors():
    """Table 1: DMA's timing resolution is coarse — some decode errors."""
    result = DmaEngineChannel(System(small_config())).transmit_random(256, seed=2)
    assert result.error_rate < 0.10


def test_dma_between_drama_and_impact():
    """Fig. 8 ordering: DRAMA < DMA < IMPACT-PnM."""
    cfg = SystemConfig.paper_default()
    dma = DmaEngineChannel(System(cfg)).transmit_random(256, seed=1)
    drama = DramaClflushChannel(System(cfg)).transmit_random(128, seed=1)
    pnm = ImpactPnmChannel(System(cfg)).transmit_random(256, seed=1)
    assert drama.throughput_mbps < dma.throughput_mbps < pnm.throughput_mbps


def test_dma_throughput_flat_across_llc_sizes():
    a = DmaEngineChannel(System(small_config(llc_mb=2.0))).transmit_random(128, seed=1)
    b = DmaEngineChannel(System(small_config(llc_mb=32.0))).transmit_random(128, seed=1)
    assert a.throughput_mbps == pytest.approx(b.throughput_mbps, rel=0.10)


# ---------------------------------------------------------------------------
# PnM-OffChip
# ---------------------------------------------------------------------------

def test_pnm_offchip_close_to_pnm_at_base_llc():
    cfg = SystemConfig.paper_default()
    off = PnmOffchipChannel(System(cfg)).transmit_random(512, seed=1)
    pnm = ImpactPnmChannel(System(cfg)).transmit_random(512, seed=1)
    assert off.throughput_mbps == pytest.approx(pnm.throughput_mbps, rel=0.05)


def test_pnm_offchip_degrades_with_llc_size():
    """§5.3 observation five: the predictor caches more on larger LLCs."""
    cfg = SystemConfig.paper_default()
    base = PnmOffchipChannel(System(cfg)).transmit_random(512, seed=1)
    big = PnmOffchipChannel(System(cfg.with_llc(64.0))).transmit_random(512, seed=1)
    assert big.throughput_mbps < base.throughput_mbps


# ---------------------------------------------------------------------------
# Analytical Streamline upper bound
# ---------------------------------------------------------------------------

def test_streamline_bound_matches_paper_validation():
    """§5.1: ~2.7 Mb/s upper bound for the smallest (2 MB) LLC, above the
    1.8 Mb/s Streamline reports on real hardware."""
    system = System(SystemConfig.paper_default().with_llc(2.0))
    bound = streamline_upper_bound_mbps(system)
    assert bound == pytest.approx(2.7, rel=0.05)
    assert bound > 1.8


def test_streamline_bound_decreases_with_llc_size():
    cfg = SystemConfig.paper_default()
    bounds = [streamline_upper_bound_mbps(System(cfg.with_llc(s)))
              for s in (2.0, 8.0, 32.0, 64.0)]
    assert bounds == sorted(bounds, reverse=True)


def test_streamline_redundancy_validation():
    with pytest.raises(ValueError):
        streamline_upper_bound_mbps(System(SystemConfig.paper_default()),
                                    redundancy=0.5)


# ---------------------------------------------------------------------------
# §3.3 attacks
# ---------------------------------------------------------------------------

def sec33_config(llc_mb=2.0, ways=16):
    # LRU models the paper's idealized N-request eviction (§3.3).
    cfg = SystemConfig.paper_default()
    return replace(cfg, hierarchy=replace(
        cfg.hierarchy, llc_size_mb=llc_mb, llc_ways=ways,
        llc_replacement="lru", prefetchers_enabled=False))


def test_direct_attack_flat_and_fast():
    """Fig. 2: ~11.27 Mb/s regardless of LLC size."""
    small = DirectAccessAttack(System(sec33_config(2.0))).transmit_random(256, seed=1)
    large = DirectAccessAttack(System(sec33_config(64.0))).transmit_random(256, seed=1)
    assert small.throughput_mbps == pytest.approx(11.27, rel=0.10)
    assert small.throughput_mbps == pytest.approx(large.throughput_mbps, rel=0.02)
    assert small.error_rate == 0.0


def test_baseline_attack_bounded_and_degrading():
    """Fig. 2: baseline <= 2.29 Mb/s, decreasing with LLC size."""
    p_small = run_sec33_point(System(sec33_config(2.0)), bits=192)
    p_large = run_sec33_point(System(sec33_config(64.0)), bits=192)
    assert p_small["baseline_mbps"] <= 2.29
    assert p_large["baseline_mbps"] < p_small["baseline_mbps"]
    assert p_large["eviction_latency_cycles"] > p_small["eviction_latency_cycles"]


def test_baseline_attack_degrades_with_ways():
    """Fig. 3: more LLC ways -> longer evictions -> lower throughput."""
    p8 = run_sec33_point(System(sec33_config(16.0, ways=8)), bits=128)
    p64 = run_sec33_point(System(sec33_config(16.0, ways=64)), bits=128)
    assert p64["baseline_mbps"] < p8["baseline_mbps"]
    assert p64["eviction_latency_cycles"] > p8["eviction_latency_cycles"]


# ---------------------------------------------------------------------------
# Table 1 primitives
# ---------------------------------------------------------------------------

def _table1(name):
    (entry,) = [entry for entry in TABLE1 if entry.name == name]
    return entry


def test_table1_property_matrix():
    assert len(TABLE1) == 5
    assert len({entry.name for entry in TABLE1}) == 5
    pim = _table1("pim-operations")
    assert pim.no_cache_lookup and pim.no_excessive_accesses
    assert pim.timing_detectability and pim.isa_guarantee
    eviction = _table1("eviction-sets")
    assert not eviction.no_cache_lookup and not eviction.isa_guarantee
    dma = _table1("dma")
    assert dma.no_cache_lookup and not dma.timing_detectability


def test_table1_row_rendering():
    row = _table1("pim-operations").row()
    assert row["primitive"] == "pim-operations"
    assert row["no_cache_lookup"] == "yes"


def test_measured_probes_reflect_properties():
    """PiM probes are the cheapest full-DRAM observations; eviction the
    most expensive."""
    system = System(small_config())
    latencies = measure_all(system)
    assert set(latencies) == {p.name for p in TABLE1}
    assert latencies["pim-operations"] < latencies["dma"]
    assert latencies["eviction-sets"] > latencies["specialized-instructions"]
    assert all(lat > 0 for lat in latencies.values())
