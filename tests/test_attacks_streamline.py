"""Tests for the simulated Streamline channel [115]."""

import pytest

from repro import System, SystemConfig
from repro.attacks import StreamlineChannel, streamline_upper_bound_mbps
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry


def small_config(llc_mb=2.0, prefetchers=False):
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=8192),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=llc_mb,
                                  prefetchers_enabled=prefetchers))


def make_channel(llc_mb=2.0, prefetchers=False, **kwargs):
    kwargs.setdefault("array_mb", 16.0)
    return StreamlineChannel(System(small_config(llc_mb, prefetchers)),
                             **kwargs)


def test_transmits_error_free_without_noise():
    result = make_channel().transmit_random(96, seed=3)
    assert result.error_rate == 0.0


def test_decode_convention_inverted():
    """Streamline decodes FAST (cache hit) as 1."""
    channel = make_channel()
    assert channel.decode(30) == 1
    assert channel.decode(150) == 0


def test_no_flushes_and_no_semaphores_needed():
    """Flushless and synchronization-free: the hierarchy records zero
    clflushes for either party."""
    system = System(small_config())
    channel = StreamlineChannel(system, array_mb=16.0)
    channel.transmit_random(64, seed=4)
    assert system.hierarchy.stats.clflushes == 0


def test_throughput_below_analytical_bound():
    """§5.1: the analytical model upper-bounds the implementable channel."""
    config = SystemConfig.paper_default()
    sim = StreamlineChannel(System(config)).transmit_random(128, seed=5)
    bound = streamline_upper_bound_mbps(System(config))
    assert sim.throughput_mbps <= bound
    assert sim.throughput_mbps > 0.5 * bound  # but not far below


def test_throughput_degrades_with_llc_size():
    small = make_channel(llc_mb=2.0).transmit_random(96, seed=6)
    large = make_channel(llc_mb=8.0, array_mb=48.0).transmit_random(96, seed=6)
    assert large.throughput_mbps < small.throughput_mbps


def test_survives_prefetchers_via_random_traversal():
    """The pseudorandom walk starves the stream prefetchers; a sequential
    walk would hand the receiver false hits."""
    result = make_channel(prefetchers=True).transmit_random(96, seed=7)
    assert result.error_rate < 0.05


def test_message_too_long_rejected():
    channel = make_channel(array_mb=4.1)
    with pytest.raises(ValueError):
        channel.transmit_random(100_000, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        make_channel(redundancy=2)  # must be odd
    with pytest.raises(ValueError):
        make_channel(lag_line_slots=0)
    with pytest.raises(ValueError):
        make_channel(llc_mb=8.0, array_mb=8.0)  # array must outsize LLC


def test_shared_order_draws_distinct_seeded_slots():
    """The traversal order is a seeded draw of distinct line indices:
    deterministic in its seed, inside the array, never longer than it."""
    from repro.attacks.streamline import shared_order

    order = shared_order(600, 5000, 7)
    assert order == shared_order(600, 5000, 7)
    assert order != shared_order(600, 5000, 8)
    assert len(set(order)) == 600
    assert all(0 <= line < 5000 for line in order)
    assert sorted(shared_order(5000, 5000, 7)) == list(range(5000))
    with pytest.raises(ValueError):
        shared_order(5001, 5000, 7)
