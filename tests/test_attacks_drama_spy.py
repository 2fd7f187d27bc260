"""Tests for the DRAMA keystroke-timing spy (§2.3 background attack)."""

import pytest

from repro import System, SystemConfig
from repro.attacks.drama_spy import (
    DramaKeystrokeSpy,
    KeystrokeSpyResult,
    poisson_keystrokes,
)
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry


def make_system(**kwargs):
    cfg = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))
    return System(cfg)


def test_recovers_every_keystroke():
    spy = DramaKeystrokeSpy(make_system())
    events = poisson_keystrokes(12, mean_gap_cycles=40_000, seed=3)
    result = spy.spy(events)
    assert result.recall == 1.0
    assert result.precision == 1.0
    assert spy.probe_count > 100  # the attacker really was probing


def test_recovers_typing_dynamics():
    """The leak DRAMA monetizes: inter-keystroke intervals, recovered to
    within a probe period."""
    spy = DramaKeystrokeSpy(make_system())
    events = poisson_keystrokes(10, mean_gap_cycles=60_000, seed=5)
    result = spy.spy(events)
    error = result.interval_error_cycles()
    assert error is not None
    assert error < 3 * result.probe_period_cycles


def test_no_events_no_detections():
    spy = DramaKeystrokeSpy(make_system())
    result = spy.spy([])
    assert result.detected_times == ()
    assert result.recall == 1.0


def test_burst_timing_is_smeared_by_probe_resolution():
    """Keystrokes issued closer together than the probe cadence are
    recovered only at the probe/bank serialization rate: the attacker
    still counts them, but the recovered inter-keystroke intervals bear
    no resemblance to the true sub-probe-period gaps."""
    spy = DramaKeystrokeSpy(make_system())
    result = spy.spy([50_001, 50_002, 50_003, 120_000])
    assert len(result.detected_times) == 4  # counted...
    true_burst_gap = 1
    detected_gaps = [b - a for a, b in zip(result.detected_times,
                                           result.detected_times[1:])]
    # ...but the burst's recovered gaps are ~the probe period, not ~1.
    assert min(detected_gaps[:2]) > 50 * true_burst_gap


def test_different_bank_victim_invisible():
    """A victim in another bank never conflicts with the probe row."""
    system = make_system()
    spy = DramaKeystrokeSpy(system, bank=0)
    # Build a victim schedule manually in bank 5 by spying on a schedule
    # whose accesses we redirect: simplest check — run with no events and
    # manually activate another bank; detector must stay silent.
    from repro.sim import Scheduler

    def other_victim(ctx, sys_):
        for i in range(5):
            ctx.advance(20_000)
            yield None
            sys_.load(ctx, core=0,
                      addr=sys_.address_of(5, 400 + i), requestor="victim")
    sched = Scheduler()
    sched.spawn(other_victim, system, name="victim")
    sched.run()
    result = spy.spy([])
    assert result.detected_times == ()


def test_validation():
    with pytest.raises(ValueError):
        DramaKeystrokeSpy(make_system(), victim_row=5, attacker_row=5)
    with pytest.raises(ValueError):
        poisson_keystrokes(-1)
    with pytest.raises(ValueError):
        poisson_keystrokes(3, mean_gap_cycles=0)


def test_result_metrics_edge_cases():
    r = KeystrokeSpyResult(true_times=(100,), detected_times=(),
                           probe_period_cycles=50.0)
    assert r.recall == 0.0
    assert r.precision == 1.0
    assert r.interval_error_cycles() is None
