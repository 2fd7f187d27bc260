"""State snapshot/restore: round trips, aliasing, and config checks."""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.config import SystemConfig
from repro.dram.bank import Bank
from repro.dram.timings import DRAMTimings
from repro.sim.snapshot import SystemSnapshot, restore_rows
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


def test_restore_rows_length_mismatch_raises():
    dst = [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        restore_rows(dst, [[1, 1]])


def test_system_snapshot_component_missing_raises():
    snap = SystemSnapshot(config=None, payload={"a": 1})
    assert snap.component("a") == 1
    with pytest.raises(KeyError):
        snap.component("missing")


def test_cache_snapshot_round_trip_is_independent_copy():
    cache = Cache(CacheConfig(name="t", size_bytes=4096, ways=4,
                              latency_cycles=1, replacement="srrip"))
    for i in range(64):
        cache.fill(i * 64)
        cache.access(i * 64, is_write=(i % 3 == 0))
    state = cache.snapshot_state()
    before = [cache.resident_lines(s) for s in range(cache.config.num_sets)]
    # Mutate heavily after the snapshot, then restore.
    for i in range(64, 160):
        cache.fill(i * 64, dirty=True)
    cache.restore_state(state)
    after = [cache.resident_lines(s) for s in range(cache.config.num_sets)]
    assert before == after
    # The snapshot payload is not aliased by the live cache: mutating the
    # restored cache must not corrupt the saved state.
    cache.fill(999 * 64)
    assert state["tags"] != [[999]]  # payload untouched (sanity)


def test_srrip_restore_preserves_cache_policy_alias():
    cache = Cache(CacheConfig(name="t", size_bytes=4096, ways=4,
                              latency_cycles=1, replacement="srrip"))
    for i in range(80):
        cache.fill(i * 64)
    state = cache.snapshot_state()
    for i in range(80, 200):
        cache.fill(i * 64)
    cache.restore_state(state)
    # Cache._rrpv aliases SRRIPPolicy._rrpv row lists; an in-place restore
    # must keep both views identical (a rebinding restore would split them).
    assert cache._rrpv is cache._policy._rrpv
    for cache_row, policy_row in zip(cache._rrpv, cache._policy._rrpv):
        assert cache_row is policy_row


def test_bank_snapshot_round_trip():
    bank = Bank(index=0, timings=DRAMTimings())
    bank.access(row=5, issued=100)
    bank.access(row=9, issued=500)
    state = bank.snapshot_state()
    bank.access(row=1, issued=900)
    bank.precharge(1500)
    bank.restore_state(state)
    assert bank.open_row == 9
    assert bank.stats.conflicts == 1


def test_system_snapshot_restore_replays_identically():
    system = System(SystemConfig.paper_default())
    _, now = _drive(system, 3000)
    snap = system.snapshot()
    tail_a, _ = _drive(system, 1500, seed_stride=13, start=now)
    system.restore(snap)
    tail_b, _ = _drive(system, 1500, seed_stride=13, start=now)
    assert tail_a == tail_b


def test_snapshot_restores_into_fresh_system():
    warm = System(SystemConfig.paper_default())
    _, now = _drive(warm, 3000)
    snap = warm.snapshot()
    tail_warm, _ = _drive(warm, 1500, seed_stride=13, start=now)

    fresh = System(SystemConfig.paper_default())
    fresh.restore(snap)
    tail_fresh, _ = _drive(fresh, 1500, seed_stride=13, start=now)
    assert tail_warm == tail_fresh


def test_snapshot_config_mismatch_raises():
    snap = System(SystemConfig.paper_default()).snapshot()
    other = System(fig11_config())
    with pytest.raises(ValueError):
        other.restore(snap)


def test_snapshot_predictor_presence_mismatch_raises():
    with_predictor = System(SystemConfig.paper_default())
    with_predictor.enable_offchip_predictor()
    snap = with_predictor.snapshot()
    without = System(SystemConfig.paper_default())
    with pytest.raises(ValueError):
        without.restore(snap)


def test_snapshot_covers_predictor_and_tlbs():
    system = System(SystemConfig.paper_default())
    predictor = system.enable_offchip_predictor()
    for i in range(200):
        predictor.predict_offchip(i * 64)
        predictor.train(i * 64, i % 2 == 0)
    system.mmus[0].warm_up([i * 4096 for i in range(32)])
    snap = system.snapshot()
    predictions_at_snap = predictor.predictions
    tlb_before = system.mmus[0].l2.snapshot_state()
    # Diverge, then restore.
    for i in range(200, 300):
        predictor.predict_offchip(i * 64)
    system.mmus[0].l2.flush()
    system.restore(snap)
    assert predictor.predictions == predictions_at_snap
    assert system.mmus[0].l2.snapshot_state() == tlb_before
