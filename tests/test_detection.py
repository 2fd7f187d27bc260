"""Tests for the cache-monitor detector and its IMPACT blind spot (§3)."""

from dataclasses import replace

import pytest

from repro import System, SystemConfig
from repro.attacks import (
    DmaEngineChannel,
    DramaClflushChannel,
    DramaEvictionChannel,
    ImpactPnmChannel,
    ImpactPumChannel,
)
from repro.cache import HierarchyConfig
from repro.cache.hierarchy import RequestorCacheStats
from repro.detection import (
    CacheMonitorDetector,
    DetectorConfig,
    run_detection_experiment,
)
from repro.dram import DRAMGeometry


def small_config(mapping="row"):
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        mapping=mapping,
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))


# ---------------------------------------------------------------------------
# Detector mechanics
# ---------------------------------------------------------------------------

def make_stats(accesses=0, misses=0, clflushes=0, window=100_000):
    stats = RequestorCacheStats(accesses=accesses, llc_misses=misses,
                                clflushes=clflushes, first_seen_cycle=0,
                                last_seen_cycle=window)
    return stats


def test_detector_flags_flush_storm():
    detector = CacheMonitorDetector()
    report = detector.inspect("p", make_stats(accesses=100, clflushes=100))
    assert report.flagged
    assert "flush storm" in report.reason


def test_detector_flags_miss_anomaly():
    detector = CacheMonitorDetector()
    report = detector.inspect("p", make_stats(accesses=200, misses=190))
    assert report.flagged
    assert "miss anomaly" in report.reason


def test_detector_passes_benign_profile():
    detector = CacheMonitorDetector()
    # 5% miss ratio, no flushes: a normal workload.
    report = detector.inspect("p", make_stats(accesses=10_000, misses=500))
    assert not report.flagged


def test_detector_silent_process_is_invisible():
    detector = CacheMonitorDetector()
    report = detector.inspect("p", make_stats())
    assert not report.flagged
    assert report.reason == "no cache activity"


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(min_events=0)


def test_report_row_rendering():
    detector = CacheMonitorDetector()
    row = detector.inspect("p", make_stats(accesses=100, clflushes=200)).row()
    assert row["requestor"] == "p"
    assert row["flagged"] is True


# ---------------------------------------------------------------------------
# The §3 experiment: who gets caught
# ---------------------------------------------------------------------------

def test_drama_clflush_is_detected():
    reports = run_detection_experiment(
        lambda s: DramaClflushChannel(s), small_config, bits=96)
    assert reports["receiver"].flagged
    assert reports["sender"].clflushes > 0


def test_drama_eviction_is_detected():
    reports = run_detection_experiment(
        lambda s: DramaEvictionChannel(s), lambda: small_config("xor"),
        bits=48)
    assert reports["sender"].flagged or reports["receiver"].flagged


def test_impact_pnm_is_invisible_to_cache_monitors():
    """§3: PiM attacks completely bypass the cache hierarchy — every
    counter the detector can read is zero."""
    reports = run_detection_experiment(
        lambda s: ImpactPnmChannel(s), small_config, bits=128)
    for who in ("sender", "receiver"):
        report = reports[who]
        assert not report.flagged
        assert report.accesses == 0
        assert report.clflushes == 0
        assert report.reason == "no cache activity"


def test_impact_pum_is_invisible_to_cache_monitors():
    reports = run_detection_experiment(
        lambda s: ImpactPumChannel(s), small_config, bits=64)
    for who in ("sender", "receiver"):
        assert reports[who].accesses == 0
        assert not reports[who].flagged


def test_dma_channel_also_evades_cache_monitors():
    """Table 1: DMA likewise bypasses the caches (its weakness is timing
    resolution, not detectability by cache monitors)."""
    reports = run_detection_experiment(
        lambda s: DmaEngineChannel(s), small_config, bits=96)
    for who in ("sender", "receiver"):
        assert reports[who].accesses == 0
        assert not reports[who].flagged
