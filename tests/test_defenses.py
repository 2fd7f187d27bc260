"""Tests for the §6 defenses: security elimination."""

import pytest

from repro import System, SystemConfig
from repro.attacks import DramaClflushChannel, ImpactPnmChannel, ImpactPumChannel
from repro.cache import HierarchyConfig
from repro.defenses import (
    DefenseSecurityReport,
    channel_capacity_bits,
    evaluate_channel_under_defense,
)
from repro.dram import DRAMGeometry


def small_config():
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))


# ---------------------------------------------------------------------------
# Channel capacity
# ---------------------------------------------------------------------------

def test_capacity_extremes():
    assert channel_capacity_bits(0.0) == 1.0
    assert channel_capacity_bits(0.5) == pytest.approx(0.0, abs=1e-12)
    assert channel_capacity_bits(1.0) == 1.0  # inverted but perfect


def test_capacity_monotone_toward_half():
    assert (channel_capacity_bits(0.1) > channel_capacity_bits(0.3)
            > channel_capacity_bits(0.45))


def test_capacity_validation():
    with pytest.raises(ValueError):
        channel_capacity_bits(1.5)


# ---------------------------------------------------------------------------
# Security evaluation
# ---------------------------------------------------------------------------

def test_undefended_channel_survives():
    report = evaluate_channel_under_defense(
        lambda s: ImpactPnmChannel(s), "open", base_config=small_config(),
        bits=64)
    assert not report.channel_eliminated
    assert report.capacity_bits_per_symbol > 0.9


@pytest.mark.parametrize("defense", ["crp", "ctd"])
def test_timing_defenses_eliminate_pnm_channel(defense):
    report = evaluate_channel_under_defense(
        lambda s: ImpactPnmChannel(s), defense, base_config=small_config(),
        bits=128)
    assert report.channel_eliminated
    assert abs(report.error_rate - 0.5) < 0.15
    # What survives of the raw bandwidth: raw Mb/s x bits per symbol.
    assert (report.result.raw_throughput_mbps
            * report.capacity_bits_per_symbol) < 0.5


@pytest.mark.parametrize("defense", ["crp", "ctd"])
def test_timing_defenses_eliminate_pum_channel(defense):
    report = evaluate_channel_under_defense(
        lambda s: ImpactPumChannel(s), defense, base_config=small_config(),
        bits=128)
    assert report.channel_eliminated


def test_ctd_also_kills_cache_mediated_channel():
    report = evaluate_channel_under_defense(
        lambda s: DramaClflushChannel(s), "ctd", base_config=small_config(),
        bits=96)
    assert report.channel_eliminated


def test_mpr_blocks_channel_outright():
    report = evaluate_channel_under_defense(
        lambda s: ImpactPnmChannel(s), "mpr", base_config=small_config(),
        bits=32)
    assert report.blocked
    assert report.channel_eliminated
    assert report.capacity_bits_per_symbol == 0.0
    assert "denied" in report.summary()


def test_report_summary_mentions_survival():
    report = evaluate_channel_under_defense(
        lambda s: ImpactPnmChannel(s), "open", base_config=small_config(),
        bits=64)
    assert "SURVIVES" in report.summary()

