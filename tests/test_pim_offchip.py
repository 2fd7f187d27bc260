"""Unit tests for the off-chip (Hermes-style) predictor."""

import pytest

from repro.pim import OffChipPredictor, OffChipPredictorConfig


def test_untrained_predictor_biased_by_llc_size():
    """Larger LLC => stronger on-chip prior (the §5.3 observation)."""
    small = OffChipPredictor(OffChipPredictorConfig(), llc_size_mb=8.0)
    large = OffChipPredictor(OffChipPredictorConfig(), llc_size_mb=64.0)
    addr = 0x12345
    # At base size the bias is zero -> borderline; at 64 MB it is negative.
    assert small._bias() == 0.0
    assert large._bias() < 0.0


def _no_pressure():
    """Perceptron-only config: opportunistic caching disabled."""
    return OffChipPredictorConfig(cache_pressure_base=0.0,
                                  cache_pressure_per_doubling=0.0)


def test_training_toward_offchip_flips_prediction():
    predictor = OffChipPredictor(_no_pressure(), llc_size_mb=64.0)
    addr = 0x40000
    assert not predictor.predict_offchip(addr)  # on-chip prior wins
    for _ in range(16):
        predictor.train(addr, was_offchip=True)
    assert predictor.predict_offchip(addr)


def test_cache_pressure_grows_with_llc_size():
    """§5.3: a larger LLC makes the predictor cache more data."""
    small = OffChipPredictor(OffChipPredictorConfig(), llc_size_mb=8.0)
    large = OffChipPredictor(OffChipPredictorConfig(), llc_size_mb=64.0)
    assert large.cache_pressure() > small.cache_pressure()


def test_cache_pressure_forces_onchip_predictions():
    config = OffChipPredictorConfig(cache_pressure_base=1.0)
    predictor = OffChipPredictor(config, llc_size_mb=8.0)
    predictor.train(0x1000, was_offchip=True)
    assert not predictor.predict_offchip(0x1000)


def test_training_toward_onchip_suppresses_offchip():
    predictor = OffChipPredictor(_no_pressure(), llc_size_mb=8.0)
    addr = 0x40000
    for _ in range(16):
        predictor.train(addr, was_offchip=False)
    assert not predictor.predict_offchip(addr)


def test_weights_saturate():
    config = OffChipPredictorConfig(weight_limit=4)
    predictor = OffChipPredictor(config, llc_size_mb=8.0)
    addr = 0x40000
    for _ in range(100):
        predictor.train(addr, was_offchip=True)
    assert max(predictor._page_weights.values()) <= 4


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        OffChipPredictorConfig(table_entries=0)
    with pytest.raises(ValueError):
        OffChipPredictor(OffChipPredictorConfig(), llc_size_mb=0)
