"""Tests for in-process warm reuse (:mod:`repro.exp.warmstore`).

The load-bearing property is the PR's hard invariant: a point served from
the pristine-system pool must be **bit-identical** to the same point
built on fresh machines (``REPRO_NO_WARMSTORE=1``).
"""

import random

import pytest

from repro.exp import warmstore
from repro.exp.warmstore import clear_pristine_pool, pristine_system
from repro.system import System
from repro.workloads.runner import fig11_config


def _drive(system, count, seed_stride=7, start=0):
    """Deterministic access stream; returns (latency, hit_level) trace."""
    now = start
    trace = []
    for i in range(count):
        result = system.hierarchy.access(
            i % system.config.num_cores, (i * 64 * seed_stride) % (1 << 22),
            now, pc=i % 53)
        trace.append((result.latency, result.hit_level))
        now = result.finish
    return trace, now


@pytest.fixture(autouse=True)
def _isolated_pool(monkeypatch):
    """Each test starts from, and leaves behind, an empty pool, and runs
    with the pool on whatever the caller's environment (benchmark
    children set ``REPRO_NO_WARMSTORE=1``); kill-switch tests set it
    themselves."""
    monkeypatch.delenv("REPRO_NO_WARMSTORE", raising=False)
    clear_pristine_pool()
    yield
    clear_pristine_pool()


def lease_twice():
    """Sweep point: two leases of one config (a hit when pooled)."""
    config = fig11_config()
    return pristine_system(config) is pristine_system(config)


# ---------------------------------------------------------------------------
# Counters and the kill switch
# ---------------------------------------------------------------------------

class TestDiscovery:
    def test_kill_switch_disables_store(self, monkeypatch):
        """``REPRO_NO_WARMSTORE=1`` (what the benchmark sets) leaves a
        sweep with no warm events: every lease is a fresh, uncounted
        build."""
        from repro.exp import SweepPoint, run_sweep

        monkeypatch.setenv("REPRO_NO_WARMSTORE", "1")
        assert not warmstore.enabled()
        outcome = run_sweep([SweepPoint("exp", lease_twice)], jobs=1)
        assert outcome.results == [False]
        assert (outcome.warm_hits, outcome.warm_misses) == (0, 0)

    def test_record_event_mirrors_into_metrics(self):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            before = warmstore.counters()
            warmstore.record_event("hits", 2)
            warmstore.record_event("misses")
            after = warmstore.counters()
            assert after["hits"] - before["hits"] == 2
            assert after["misses"] - before["misses"] == 1
            assert registry.counter("warmstore.hits").value == 2
            assert registry.counter("warmstore.misses").value == 1
        finally:
            obs_metrics.uninstall()


# ---------------------------------------------------------------------------
# Pristine-system pool
# ---------------------------------------------------------------------------

class TestPristineSystem:
    def test_matches_fresh_construction(self):
        config = fig11_config()
        baseline, _ = _drive(System(config), 600)
        first, _ = _drive(pristine_system(config), 600)
        second, _ = _drive(pristine_system(config), 600)
        assert first == baseline
        assert second == baseline

    def test_pool_reuses_one_instance(self):
        from repro import obs

        if obs.sanitize_requested():
            pytest.skip("pool self-bypasses under the sanitizer")
        config = fig11_config()
        assert pristine_system(config) is pristine_system(config)

    def test_kill_switch_forces_fresh_systems(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_WARMSTORE", "1")
        config = fig11_config()
        assert pristine_system(config) is not pristine_system(config)

    def test_pool_bypassed_under_metrics_registry(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            config = fig11_config()
            assert pristine_system(config) is not pristine_system(config)
        finally:
            obs_metrics.uninstall()

    def test_predictor_lease_does_not_poison_pool(self):
        from repro import obs

        if obs.sanitize_requested():
            pytest.skip("pool self-bypasses under the sanitizer")
        config = fig11_config()
        leased = pristine_system(config)
        leased.enable_offchip_predictor()  # what PnM-OffChip does
        again = pristine_system(config)
        assert again.offchip_predictor is None


# ---------------------------------------------------------------------------
# The hard invariant: pool-served == fresh machines, bit for bit
# ---------------------------------------------------------------------------

class TestWarmEquivalence:
    def test_randomized_figure_points_bit_identical(self, monkeypatch):
        """fig8 (all seven attacks)/fig10/fig11 points with randomized
        parameters: on fresh machines (kill switch), then twice through
        the pool, the second pass served by pooled systems."""
        from repro import obs
        from repro.exp.figures import (
            fig8_quality_point,
            fig10_point,
            fig11_point,
        )

        seed = random.randrange(1 << 30)
        rng = random.Random(seed)
        llc_mb = rng.choice([4.0, 8.0])
        banks = rng.choice([512, 1024])
        rounds = rng.randrange(6, 14)
        max_refs = rng.randrange(2000, 4000)
        workload = rng.choice(["BC", "PR"])

        def run_points():
            return {
                "fig8": fig8_quality_point(llc_mb, bits=32),
                "fig10": fig10_point(banks, rounds=rounds),
                "fig11": fig11_point(workload, max_refs=max_refs),
            }

        monkeypatch.setenv("REPRO_NO_WARMSTORE", "1")
        scratch = run_points()

        monkeypatch.delenv("REPRO_NO_WARMSTORE")
        first = run_points()
        assert first == scratch, f"first pooled pass diverged (seed={seed})"

        before = warmstore.counters()
        second = run_points()
        after = warmstore.counters()
        if not obs.sanitize_requested():  # the pool bypasses the sanitizer
            assert after["hits"] > before["hits"]
            assert after["misses"] == before["misses"]
        assert second == scratch, f"second pooled pass diverged (seed={seed})"
