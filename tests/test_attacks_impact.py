"""Integration tests for the IMPACT-PnM and IMPACT-PuM covert channels."""

import pytest

from repro import System, SystemConfig
from repro.attacks import ImpactPnmChannel, ImpactPumChannel, random_bits
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry


def small_config(**noise):
    cfg = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))
    if noise:
        cfg = cfg.with_noise(**noise)
    return cfg


# ---------------------------------------------------------------------------
# IMPACT-PnM
# ---------------------------------------------------------------------------

def test_pnm_transmits_error_free_without_noise():
    channel = ImpactPnmChannel(System(small_config()))
    result = channel.transmit_random(128, seed=7)
    assert result.error_rate == 0.0
    assert result.bits == 128


def test_pnm_decodes_all_patterns():
    for pattern in ([0] * 16, [1] * 16, [1, 0] * 8, [0, 0, 1, 1] * 4):
        channel = ImpactPnmChannel(System(small_config()))
        result = channel.transmit(pattern)
        assert result.received == pattern


def test_pnm_throughput_matches_paper_scale():
    """§5.3: IMPACT-PnM ~12.87 Mb/s on the Table 2 system."""
    channel = ImpactPnmChannel(System(SystemConfig.paper_default()))
    result = channel.transmit_random(512, seed=1)
    assert result.throughput_mbps == pytest.approx(12.87, rel=0.08)


def test_pnm_probe_latencies_bimodal_around_threshold():
    """Fig. 7(a): conflict and hit probe latencies straddle 150 cycles."""
    channel = ImpactPnmChannel(System(small_config()))
    message = [1, 0] * 8
    result = channel.transmit(message)
    ones = [lat for bit, lat in zip(message, result.probe_latencies) if bit]
    zeros = [lat for bit, lat in zip(message, result.probe_latencies) if not bit]
    assert min(ones) > 150
    assert max(zeros) < 150


def test_pnm_long_message_wraps_banks_correctly():
    """Messages longer than the bank count reuse banks round-robin; credit
    backpressure keeps the sender from clobbering unprobed banks."""
    channel = ImpactPnmChannel(System(small_config()))
    result = channel.transmit_random(256, seed=3)  # 16 banks x 16 rounds
    assert result.error_rate == 0.0


def test_pnm_bypasses_cache_hierarchy():
    system = System(small_config())
    channel = ImpactPnmChannel(system)
    channel.transmit_random(64, seed=0)
    assert system.hierarchy.stats.demand_accesses == 0


def test_pnm_survives_moderate_noise():
    """§5.1: noise sources induce some errors but not channel collapse."""
    channel = ImpactPnmChannel(System(small_config(rate_per_kilocycle=2.0)))
    result = channel.transmit_random(256, seed=5)
    assert result.error_rate < 0.30
    assert result.throughput_mbps > 5.0


def test_pnm_sender_receiver_breakdown():
    times = ImpactPnmChannel(System(small_config())).sender_receiver_breakdown()
    assert times["send_cycles"] > 0
    assert times["read_cycles"] > 0


def test_pnm_invalid_configs_rejected():
    system = System(small_config())
    with pytest.raises(ValueError):
        ImpactPnmChannel(system, batch_size=0)
    with pytest.raises(ValueError):
        ImpactPnmChannel(system, init_row=5, interference_row=5)
    with pytest.raises(ValueError):
        ImpactPnmChannel(system, banks=[])


# ---------------------------------------------------------------------------
# IMPACT-PuM
# ---------------------------------------------------------------------------

def test_pum_transmits_error_free_without_noise():
    channel = ImpactPumChannel(System(small_config()))
    result = channel.transmit_random(128, seed=7)
    assert result.error_rate == 0.0


def test_pum_decodes_all_patterns():
    for pattern in ([0] * 16, [1] * 16, [1, 0] * 8):
        channel = ImpactPumChannel(System(small_config()))
        result = channel.transmit(pattern)
        assert result.received == pattern


def test_pum_throughput_matches_paper_scale():
    """§5.3: IMPACT-PuM ~14.16 Mb/s, ~10% above IMPACT-PnM."""
    result = ImpactPumChannel(System(SystemConfig.paper_default())) \
        .transmit_random(512, seed=1)
    assert result.throughput_mbps == pytest.approx(14.16, rel=0.08)


def test_pum_beats_pnm():
    pum = ImpactPumChannel(System(SystemConfig.paper_default())) \
        .transmit_random(512, seed=1)
    pnm = ImpactPnmChannel(System(SystemConfig.paper_default())) \
        .transmit_random(512, seed=1)
    assert pum.throughput_mbps > pnm.throughput_mbps


def test_pum_sender_14x_faster_than_pnm_sender():
    """Fig. 9: the PuM sender transmits a 16-bit message in one parallel
    RowClone — ~14x faster than the PnM sender's 16 sequential PEIs."""
    pnm = ImpactPnmChannel(System(small_config())).sender_receiver_breakdown(16)
    pum = ImpactPumChannel(System(small_config())).sender_receiver_breakdown(16)
    speedup = pnm["send_cycles"] / pum["send_cycles"]
    assert 10 <= speedup <= 20


def test_pum_probe_latencies_bimodal_around_threshold():
    """Fig. 7(b)."""
    channel = ImpactPumChannel(System(small_config()))
    message = [1, 0] * 8
    result = channel.transmit(message)
    ones = [lat for bit, lat in zip(message, result.probe_latencies) if bit]
    zeros = [lat for bit, lat in zip(message, result.probe_latencies) if not bit]
    assert min(ones) > 150
    assert max(zeros) < 150


def test_pum_multi_round_messages():
    channel = ImpactPumChannel(System(small_config()))
    result = channel.transmit_random(96, seed=2)  # 6 rounds of 16
    assert result.error_rate == 0.0


def test_pnm_threshold_calibration():
    """The attacker calibrates the decode threshold online (~Fig. 7's 150)."""
    channel = ImpactPnmChannel(System(small_config()))
    threshold = channel.calibrate_threshold()
    assert 120 <= threshold <= 175
    assert channel.threshold_cycles == threshold
    result = channel.transmit_random(64, seed=12)
    assert result.error_rate == 0.0


def test_pnm_calibration_fails_on_defended_system():
    """Under CTD there is no timing gap to calibrate against."""
    channel = ImpactPnmChannel(System(small_config().with_defense("ctd")))
    with pytest.raises(RuntimeError):
        channel.calibrate_threshold()


def test_pnm_calibration_validation():
    channel = ImpactPnmChannel(System(small_config()))
    with pytest.raises(ValueError):
        channel.calibrate_threshold(samples=0)
    with pytest.raises(ValueError):
        channel.calibrate_threshold(calibration_rows=(5, 5))


def test_pnm_batch_cannot_exceed_banks():
    """A bank carries one bit of evidence per batch; wider batches would
    self-overwrite on narrow co-locations."""
    system = System(small_config())
    with pytest.raises(ValueError):
        ImpactPnmChannel(system, banks=[3], batch_size=4)
    # Single-bank lockstep works at batch 1.
    channel = ImpactPnmChannel(system, banks=[3], batch_size=1)
    result = channel.transmit_random(32, seed=4)
    assert result.error_rate == 0.0
