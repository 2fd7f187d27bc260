"""Tests for concurrent multi-pair IMPACT-PnM channels."""

import pytest

from repro import System, SystemConfig
from repro.attacks import run_multi_pair
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry


def config(banks=64):
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=banks,
                              rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=4, llc_size_mb=2.0,
                                  prefetchers_enabled=False))


def test_single_pair_matches_channel_scale():
    result = run_multi_pair(System(config()), pairs=1, bits_per_pair=256)
    assert result.worst_error_rate == 0.0
    assert result.aggregate_throughput_mbps == pytest.approx(12.8, rel=0.1)


def test_pairs_transmit_error_free_concurrently():
    """Disjoint bank subsets: pairs do not corrupt each other."""
    result = run_multi_pair(System(config()), pairs=4, bits_per_pair=128)
    assert result.pairs == 4
    for outcome in result.outcomes:
        assert outcome.error_rate == 0.0
        assert outcome.received == outcome.sent
    # Bank subsets really are disjoint.
    all_banks = [b for o in result.outcomes for b in o.banks]
    assert len(all_banks) == len(set(all_banks))


def test_aggregate_throughput_scales_with_pairs():
    """Bank-level parallelism headroom: k pairs >> 1 pair."""
    one = run_multi_pair(System(config()), pairs=1, bits_per_pair=256)
    four = run_multi_pair(System(config()), pairs=4, bits_per_pair=256)
    scaling = (four.aggregate_throughput_mbps
               / one.aggregate_throughput_mbps)
    assert scaling > 3.0


def test_scaling_saturates_when_banks_run_short():
    """With few banks per pair, credit backpressure throttles pipelining."""
    eight = run_multi_pair(System(config()), pairs=8, bits_per_pair=128)
    four = run_multi_pair(System(config()), pairs=4, bits_per_pair=128)
    per_pair_8 = eight.aggregate_throughput_mbps / 8
    per_pair_4 = four.aggregate_throughput_mbps / 4
    assert per_pair_8 < per_pair_4


def test_validation():
    system = System(config(banks=16))
    with pytest.raises(ValueError):
        run_multi_pair(system, pairs=0)
    with pytest.raises(ValueError):
        run_multi_pair(system, pairs=8, batch_size=4)  # 2 banks/pair < batch
