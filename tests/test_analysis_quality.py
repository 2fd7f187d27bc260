"""Tests for channel-quality analytics (repro.analysis.quality) and the
shared Welch-t / percentile statistics."""

import json

import pytest

from repro import System, SystemConfig
from repro.analysis import (
    TVLA_T_THRESHOLD,
    bin_latencies,
    channel_quality,
    mutual_information_bits,
    percentile,
    welch_t_from_summary,
    welch_t_stat,
    wilson_interval,
)
from repro.attacks import ImpactPnmChannel


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------

def test_wilson_no_trials_is_vacuous():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_zero_errors_upper_bound():
    low, high = wilson_interval(0, 100)
    assert low == 0.0
    # z^2 / (n + z^2) for successes=0
    assert high == pytest.approx(1.96 ** 2 / (100 + 1.96 ** 2))


def test_wilson_half_is_symmetric():
    low, high = wilson_interval(50, 100)
    assert low == pytest.approx(1 - high)
    assert low < 0.5 < high


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
def test_wilson_narrows_with_trials(rate):
    """More trials at the same observed rate can only tighten the
    interval."""
    widths = [high - low for low, high in
              (wilson_interval(int(rate * n), n)
               for n in (20, 80, 320, 1280, 5120))]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    assert all(0.0 < width < 1.0 for width in widths)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)


# ---------------------------------------------------------------------------
# Percentile (shared helper)
# ---------------------------------------------------------------------------

def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 0.5) == pytest.approx(2.5)
    assert percentile([4, 1, 3, 2], 0.0) == 1
    assert percentile([4, 1, 3, 2], 1.0) == 4


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


# ---------------------------------------------------------------------------
# Welch's t
# ---------------------------------------------------------------------------

def test_welch_t_separated_samples_leak():
    t = welch_t_stat([200, 201, 202, 199], [100, 101, 99, 100])
    assert t.t > TVLA_T_THRESHOLD
    assert t.n_a == 4 and t.n_b == 4
    assert t.dof > 0


def test_welch_t_identical_samples_do_not_leak():
    t = welch_t_stat([100, 101, 99], [100, 101, 99])
    assert abs(t.t) < TVLA_T_THRESHOLD


def test_welch_t_zero_variance_stays_finite():
    """Deterministic simulations produce constant latencies per bit; the
    timer-quantization variance floor must keep t finite (JSON-able)."""
    t = welch_t_stat([200] * 8, [100] * 8)
    assert t.t > TVLA_T_THRESHOLD
    assert t.t < float("inf")
    json.dumps(t.t)


def test_welch_t_small_samples_are_zero():
    assert welch_t_stat([1], [2, 3]).t == 0.0
    assert welch_t_stat([], []).t == 0.0


def test_welch_t_from_summary_degenerate_cases():
    assert welch_t_from_summary(1.0, 0.0, 0, 0.0, 0.0, 10) == 0.0
    assert welch_t_from_summary(1.0, 0.0, 5, 1.0, 0.0, 5) == 0.0


def test_welch_t_from_summary_bernoulli():
    # All-miss process vs a 5% benign baseline: unambiguous.
    t = welch_t_from_summary(1.0, 0.0, 100, 0.05, 0.05 * 0.95, 10_000)
    assert t > TVLA_T_THRESHOLD


# ---------------------------------------------------------------------------
# Binning and mutual information
# ---------------------------------------------------------------------------

def test_bin_latencies_collapses_ties():
    assert bin_latencies([], bins=4) == []
    assert bin_latencies([7, 7, 7, 7], bins=4) == [0, 0, 0, 0]
    bins = bin_latencies([100, 100, 200, 200], bins=2)
    assert bins[0] == bins[1] != bins[2] == bins[3]
    with pytest.raises(ValueError):
        bin_latencies([1], bins=0)


def test_mutual_information_perfect_and_independent():
    assert mutual_information_bits([0, 1, 0, 1],
                                   [0, 1, 0, 1]) == pytest.approx(1.0)
    assert mutual_information_bits([0, 0, 1, 1],
                                   [5, 5, 5, 5]) == pytest.approx(0.0)
    assert mutual_information_bits([], []) == 0.0
    with pytest.raises(ValueError):
        mutual_information_bits([0], [1, 2])


# ---------------------------------------------------------------------------
# channel_quality
# ---------------------------------------------------------------------------

def test_channel_quality_clean_separated_channel():
    sent = [0, 1, 0, 1, 0, 1]
    lat = [100 if b == 0 else 200 for b in sent]
    q = channel_quality(sent, sent, lat, threshold_cycles=150,
                       cycles=6000, cpu_hz=1e9)
    assert q.ber == 0.0
    assert q.ber_ci95[0] == 0.0 and q.ber_ci95[1] < 0.5
    assert q.mutual_information_bits == pytest.approx(1.0)
    assert q.capacity_mbps == pytest.approx(1.0)  # 1 bit/symbol at 1 Mb/s
    assert q.leaks
    assert q.eye_gap == 100
    assert q.threshold_margins() == (50, 50)
    json.dumps(q.to_dict())  # everything JSON-able


def test_channel_quality_without_latencies_degrades():
    q = channel_quality([0, 1, 1, 0], [0, 1, 0, 0])
    assert q.bits == 4 and q.errors == 1
    assert q.leakage.t == 0.0 and not q.leaks
    assert q.eye_gap is None and q.zero_latency is None
    assert q.threshold_margins() is None
    assert q.mutual_information_bits > 0  # confusion-matrix fallback


def test_channel_quality_validates_alignment():
    with pytest.raises(ValueError):
        channel_quality([0, 1], [0])


def test_channel_result_quality_end_to_end():
    channel = ImpactPnmChannel(System(SystemConfig.paper_default()))
    result = channel.transmit_random(32, seed=7)
    q = result.quality(channel.threshold_cycles)
    assert q.bits == 32
    assert q.ber == result.error_rate
    assert q.leaks  # the undefended channel leaks by construction
    assert q.capacity_mbps > 0
    assert q.threshold_cycles == channel.threshold_cycles
