"""Unit tests for the PEI engine and the PMU locality monitor."""

import copy
import random
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import System, SystemConfig
from repro.cache import CacheHierarchy, HierarchyConfig
from repro.dram import (
    AccessKind,
    DRAMGeometry,
    DRAMTimings,
    MemoryController,
    MemoryControllerConfig,
    RowPolicy,
)
from repro.obs import Tracer
from repro.pim import ExecutionSite, LocalityMonitor, PEIConfig, PEIEngine

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)


def make_engine(**pei_kwargs):
    controller = MemoryController(MemoryControllerConfig(geometry=GEOM))
    hierarchy = CacheHierarchy(HierarchyConfig(num_cores=1, llc_size_mb=2.0,
                                               prefetchers_enabled=False),
                               controller)
    return PEIEngine(PEIConfig(**pei_kwargs), controller, hierarchy)


# ---------------------------------------------------------------------------
# Locality monitor
# ---------------------------------------------------------------------------

def test_monitor_first_touch_goes_to_memory():
    monitor = LocalityMonitor(PEIConfig())
    assert monitor.observe(0x1000) is False


def test_monitor_ignore_flag_skips_first_hit():
    """[93]: the first hit on a fresh entry is ignored — the bypass
    IMPACT-PnM relies on (§4.1)."""
    monitor = LocalityMonitor(PEIConfig(ignore_first_hit=True,
                                        locality_threshold=1))
    assert monitor.observe(0x1000) is False  # allocate
    assert monitor.observe(0x1000) is False  # first hit ignored
    assert monitor.observe(0x1000) is True   # now high locality


def test_monitor_without_ignore_flag_detects_sooner():
    monitor = LocalityMonitor(PEIConfig(ignore_first_hit=False,
                                        locality_threshold=1))
    assert monitor.observe(0x1000) is False
    assert monitor.observe(0x1000) is True


def test_monitor_attacker_set_ignore_re_arms_bypass():
    """The attacker can keep re-setting the ignore flag to stay on the
    memory path with a small address range (§4.1 step 1)."""
    monitor = LocalityMonitor(PEIConfig(ignore_first_hit=True,
                                        locality_threshold=1))
    monitor.observe(0x1000)
    for _ in range(10):
        assert monitor.observe(0x1000, set_ignore=True) is False


def test_monitor_eviction_forgets_cold_entries():
    config = PEIConfig(monitor_entries=4, monitor_ways=1,
                       locality_threshold=1, ignore_first_hit=False)
    monitor = LocalityMonitor(config, line_bytes=64)
    # Entries are direct-mapped on block % 4: blocks 0 and 4 collide.
    monitor.observe(0 * 64)
    monitor.observe(4 * 64)  # evicts block 0
    assert monitor.observe(0 * 64) is False  # fresh allocation again


def test_monitor_distinct_blocks_never_high_locality():
    monitor = LocalityMonitor(PEIConfig())
    for i in range(64):
        assert monitor.observe(i * 64) is False


# ---------------------------------------------------------------------------
# PEI engine
# ---------------------------------------------------------------------------

def test_memory_execution_reaches_dram_directly():
    engine = make_engine()
    controller = engine.controller
    addr = controller.address_of(bank=3, row=17)
    result = engine.execute(addr, issued=0)
    assert result.site is ExecutionSite.MEMORY
    assert result.bank == 3
    assert controller.open_rows()[3] == 17
    # The cache hierarchy saw nothing.
    assert engine.hierarchy.stats.demand_accesses == 0


def test_memory_execution_latency_breakdown():
    engine = make_engine(issue_cycles=2, network_cycles=25, pcu_op_cycles=3)
    controller = engine.controller
    addr = controller.address_of(bank=0, row=1)
    t = controller.config.timings
    result = engine.execute(addr, issued=0)
    expected = 2 + 25 + 4 + t.empty_cycles + 3 + 25  # queue_cycles = 4
    assert result.latency == expected


def test_pei_hit_vs_conflict_straddles_threshold():
    """Fig. 7(a): hits decode below 150 cycles, conflicts above."""
    engine = make_engine()
    controller = engine.controller
    row_a = controller.address_of(bank=0, row=10)
    row_b = controller.address_of(bank=0, row=20)
    engine.execute(row_a, issued=0)
    hit = engine.execute(row_a, issued=10_000)
    assert hit.kind is AccessKind.HIT
    assert hit.latency < 150
    conflict = engine.execute(row_b, issued=20_000)
    assert conflict.kind is AccessKind.CONFLICT
    assert conflict.latency > 150


def test_high_locality_pei_executes_on_host():
    engine = make_engine(locality_threshold=1, ignore_first_hit=False)
    addr = engine.controller.address_of(bank=0, row=1)
    engine.execute(addr, issued=0)
    result = engine.execute(addr, issued=10_000)
    assert result.site is ExecutionSite.HOST
    assert engine.hierarchy.stats.demand_accesses == 1


def test_host_execution_hits_cache_and_hides_row_state():
    """Once on the host path, a warm PEI never reaches DRAM — the attack
    signal disappears, which is why the bypass matters."""
    engine = make_engine(locality_threshold=1, ignore_first_hit=False)
    addr = engine.controller.address_of(bank=0, row=1)
    engine.execute(addr, issued=0)          # memory; fills nothing
    engine.execute(addr, issued=10_000)     # host; misses, fills caches
    result = engine.execute(addr, issued=20_000)
    assert result.site is ExecutionSite.HOST
    assert result.kind is None  # served from cache: no DRAM evidence


def test_force_site_overrides_monitor():
    engine = make_engine(locality_threshold=1, ignore_first_hit=False)
    addr = engine.controller.address_of(bank=0, row=1)
    result = engine.execute(addr, issued=0, force_site=ExecutionSite.HOST)
    assert result.site is ExecutionSite.HOST


def test_execute_parallel_overlaps_bank_operations():
    """§4.3: the attacker probes many banks with back-to-back PEIs; DRAM
    operations overlap across banks, so total time << serial sum."""
    engine = make_engine()
    controller = engine.controller
    addrs = [controller.address_of(bank=b, row=5) for b in range(16)]
    results = engine.execute_parallel(addrs, issued=0)
    assert len(results) == 16
    serial_estimate = sum(r.latency for r in results)
    wall_clock = max(r.finish for r in results)
    assert wall_clock < serial_estimate / 2


def test_execute_parallel_preserves_order_and_kinds():
    engine = make_engine()
    controller = engine.controller
    addrs = [controller.address_of(bank=b, row=5) for b in range(4)]
    engine.execute_parallel(addrs, issued=0)
    again = engine.execute_parallel(addrs, issued=100_000)
    assert [r.bank for r in again] == [0, 1, 2, 3]
    assert all(r.kind is AccessKind.HIT for r in again)


def test_pei_config_validation():
    with pytest.raises(ValueError):
        PEIConfig(issue_cycles=-1)
    with pytest.raises(ValueError):
        PEIConfig(monitor_entries=5, monitor_ways=2)
    with pytest.raises(ValueError):
        PEIConfig(locality_threshold=0)


# ---------------------------------------------------------------------------
# One-pass rescan against its reference (the §4.3 attacker's scan)
# ---------------------------------------------------------------------------

ANCHOR = 50
RESCAN_AT = 2_000


def _rescan_config(**overrides):
    config = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=64, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=1, llc_size_mb=2.0,
                                  prefetchers_enabled=False))
    return replace(config, **overrides)


def _prestate(system, seed):
    """Seeded pre-state, applied through the controller: each bank has the
    anchor row open, another row open, is precharged (never touched), or
    is still busy when the rescan reaches it."""
    rng = random.Random(seed)
    controller = system.controller
    for bank in range(system.num_banks):
        state = rng.choice(("anchor", "other", "precharged", "busy"))
        if state == "anchor":
            controller.activate(bank, ANCHOR, rng.randrange(RESCAN_AT),
                                requestor="setup")
        elif state == "other":
            row = ANCHOR + 1 + rng.randrange(8)
            controller.access(controller.address_of(bank, row),
                              rng.randrange(RESCAN_AT), requestor="setup")
        elif state == "busy":
            row = rng.choice((ANCHOR, ANCHOR + 3))
            controller.access(controller.address_of(bank, row),
                              RESCAN_AT + rng.randrange(150),
                              requestor="setup")


def _twins(seed, lock_banks=(), **overrides):
    """Two identical systems with the same pre-state.  ``sanitize=False``
    keeps the sanitizer (``REPRO_SANITIZE=1``) from turning the one-pass
    rescan into a call of its reference."""
    systems = []
    for _ in range(2):
        system = System(_rescan_config(**overrides), sanitize=False)
        _prestate(system, seed)
        if lock_banks:
            controller = system.controller
            mask = sum(1 << bank for bank in lock_banks)
            controller.rowclone(controller.address_of(0, 7),
                                controller.address_of(0, 9), mask,
                                RESCAN_AT - 20, requestor="setup")
        systems.append(system)
    return systems


def _bank_state(controller):
    """Every bank's row, clocks and counters, pending rescans written
    back first."""
    controller.settle()
    return [(b.open_row, b.busy_until, b.last_activation, b.row_opened_at,
             b.stats) for b in controller.device.banks]


def _assert_same_state(fast, reference):
    """Both machines agree.  ``fast``'s banks are compared on a settled
    copy, so its pending rescan state survives the comparison."""
    controller = fast.controller
    observer = controller._obs
    settled = copy.deepcopy(controller, {id(observer): observer})
    assert _bank_state(settled) == _bank_state(reference.controller)
    assert controller.requestor_stats == reference.controller.requestor_stats
    assert fast.pei.memory_executions == reference.pei.memory_executions
    assert controller._locked_until == reference.controller._locked_until


def _reference_rescan(reference, locations, issued, gap, threshold):
    """``execute_parallel`` plus a decode: the results, and what
    ``execute_parallel_raw`` must return."""
    encode = reference.controller.address_of
    results = reference.pei.execute_parallel(
        [encode(bank, row) for bank, row in locations], issued,
        issue_gap_cycles=gap, requestor="attacker")
    return results, (max((r.finish for r in results), default=issued),
                     [r.bank for r in results if r.latency > threshold])


def _rescan_matches_reference(fast, reference, locations, *, threshold=150,
                              gap=1.45, issued=RESCAN_AT):
    """``execute_parallel_raw`` on ``fast`` must return the max finish and
    the slow banks of ``execute_parallel`` on ``reference``, and leave
    both machines in the same state.  Returns the reference results."""
    results, expected = _reference_rescan(reference, locations, issued, gap,
                                          threshold)
    got = fast.pei.execute_parallel_raw(
        locations, issued, threshold_cycles=threshold,
        issue_gap_cycles=gap, requestor="attacker")
    assert got == expected
    _assert_same_state(fast, reference)
    return results


def _anchor_scan(banks):
    return [(bank, ANCHOR) for bank in range(banks)]


@pytest.mark.parametrize("gap", [None, 2, 1.45, 0.7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rescan_matches_reference(seed, gap):
    fast, reference = _twins(seed)
    results = _rescan_matches_reference(fast, reference, _anchor_scan(64),
                                        gap=gap)
    kinds = {r.kind for r in results}
    assert {AccessKind.HIT, AccessKind.EMPTY, AccessKind.CONFLICT} <= kinds
    # Some banks were still busy when their PEI arrived.
    assert any(r.finish - r.issued > 150 and r.kind is AccessKind.HIT
               for r in results)
    # The next rescan starts from the state the first one left.
    _rescan_matches_reference(fast, reference, _anchor_scan(64), gap=gap,
                              issued=max(r.finish for r in results) + 250)


def test_rescan_matches_reference_under_row_timeout():
    fast, reference = _twins(
        3, timings=DRAMTimings(row_timeout_ns=300.0))
    before = reference.controller.open_rows()
    results = _rescan_matches_reference(fast, reference, _anchor_scan(64))
    # Some anchor rows were still open but timed out.
    assert any(before[r.bank] == ANCHOR and r.kind is AccessKind.EMPTY
               for r in results)
    assert any(r.kind is AccessKind.HIT for r in results)


def test_rescan_matches_reference_under_closed_row_policy():
    fast, reference = _twins(4, row_policy=RowPolicy.CLOSED)
    results = _rescan_matches_reference(fast, reference, _anchor_scan(64))
    # The controller never leaves a row open under the closed-row policy.
    assert all(r.kind is AccessKind.EMPTY for r in results)


def test_rescan_waits_for_a_rowclone_lock():
    fast, reference = _twins(5, lock_banks=(3, 17))
    locked = reference.controller._locked_until
    assert locked > RESCAN_AT
    results = _rescan_matches_reference(fast, reference, _anchor_scan(64))
    assert results[0].finish > locked


def test_rescan_lists_a_repeated_bank_twice():
    fast, reference = _twins(6)
    locations = _anchor_scan(8) + [(3, ANCHOR + 5), (3, ANCHOR), (3, ANCHOR)]
    results = _rescan_matches_reference(fast, reference, locations,
                                        threshold=0)
    assert [r.bank for r in results][-3:] == [3, 3, 3]


def _idle_hit_latency(system):
    config = system.config
    return (2 * config.pei.network_cycles + config.pei.pcu_op_cycles
            + config.queue_cycles + config.timings.hit_cycles)


def test_rescan_latency_at_threshold_is_not_slow():
    fast, reference = _twins(7)
    threshold = _idle_hit_latency(reference)
    results = _rescan_matches_reference(fast, reference, _anchor_scan(64),
                                        threshold=threshold)
    assert any(r.latency == threshold for r in results)


def test_rescan_of_nothing_finishes_at_issue():
    fast, reference = _twins(8)
    _rescan_matches_reference(fast, reference, [])
    assert "attacker" not in fast.controller.requestor_stats
    tracer = Tracer()
    fast.pei.set_observer(tracer)
    assert fast.pei.execute_parallel_raw(
        [], RESCAN_AT, threshold_cycles=150) == (RESCAN_AT, [])
    assert len(tracer) == 0


def test_rescan_with_an_observer_reports_every_pei():
    fast, reference = _twins(9)
    tracer = Tracer()
    fast.pei.set_observer(tracer)
    threshold = _idle_hit_latency(reference)
    results = _rescan_matches_reference(fast, reference, _anchor_scan(64),
                                        threshold=threshold)
    assert any(r.latency == threshold for r in results)
    assert sum(event.name == "PEI" for event in tracer.events) == 64


# ---------------------------------------------------------------------------
# Deferred rescans: the pending record against the reference, step by step
# ---------------------------------------------------------------------------

#: One tuple object, so successive rescans of it may defer.
SCAN = tuple(_anchor_scan(64))
_BANKS = st.integers(0, 63)
_ROWS = st.sampled_from((ANCHOR, ANCHOR + 1, ANCHOR + 2))
_RESCAN = st.tuples(st.just("rescan"), st.integers(0, 300),
                    st.sampled_from((150, 80)))
_VICTIM = st.tuples(st.just("victim"), _BANKS, _ROWS, st.integers(0, 800))
_NOISE = st.tuples(st.just("noise"), _BANKS, _ROWS, st.integers(0, 10**6))
#: Branches repeat to weight them: rescans and the traffic between them
#: dominate, and the three steps that drop the pending record share one
#: branch.
_STEPS = st.lists(st.one_of(
    _RESCAN, _RESCAN, _RESCAN, _VICTIM, _VICTIM, _VICTIM, _NOISE, _NOISE,
    _NOISE,
    st.tuples(st.just("early"), st.integers(1, 400)),
    st.tuples(st.just("gap"), st.sampled_from((2, 0.7)), st.integers(0, 300)),
    st.tuples(st.just("write"), _BANKS, _ROWS, st.integers(0, 800)),
    st.tuples(st.just("lock"), st.integers(1, 2**64 - 1),
              st.integers(0, 300)),
    st.tuples(st.sampled_from(("rebase", "reset", "observer")),
              st.booleans(), st.integers(0, 300)),
), min_size=10, max_size=30)


def _rescan_step(fast, reference, issued, gap=1.45, threshold=150):
    """One scan of ``SCAN`` on both twins; returns ``(issued, finish)``.
    A threshold of 80 cycles is below an idle hit's round trip."""
    _results, expected = _reference_rescan(reference, SCAN, issued, gap,
                                           threshold)
    got = fast.pei.execute_parallel_raw(SCAN, issued,
                                        threshold_cycles=threshold,
                                        issue_gap_cycles=gap,
                                        requestor="attacker")
    assert got == expected
    return issued, got[0]


def _both(fast, reference, act):
    """Apply ``act`` to both twins; their return values must agree."""
    assert act(fast) == act(reference)


# Not shrunk: hypothesis keeps each shrink attempt's failure report, here
# a diff of every bank, and that grows by megabytes a second.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate,))
@given(seed=st.integers(0, 2**16), steps=_STEPS)
def test_deferred_rescans_match_reference(seed, steps):
    """Rescans of one tuple defer their idle hits; whatever runs between
    them (victim PEIs, noise activations inside the previous rescan's
    window, writes, RowClone locks, clock rebases, stats resets, observers)
    must see and leave the state the reference does."""
    fast, reference = _twins(seed)
    window = _rescan_step(fast, reference, RESCAN_AT)
    window = _rescan_step(fast, reference, window[1])
    assert fast.controller._pending.rescans == 1
    _assert_same_state(fast, reference)
    for step in steps:
        kind = step[0]
        issued, finish = window
        if kind == "rescan":
            window = _rescan_step(fast, reference, finish + step[1],
                                  threshold=step[2])
        elif kind == "early":
            window = _rescan_step(fast, reference, max(0, finish - step[1]))
        elif kind == "gap":
            window = _rescan_step(fast, reference, finish + step[2], step[1])
        elif kind == "victim":
            _, bank, row, delay = step
            _both(fast, reference, lambda s: s.pei.execute(
                s.controller.address_of(bank, row), issued + delay,
                requestor="victim"))
        elif kind == "noise":
            _, bank, row, offset = step
            at = issued + offset % max(1, finish - issued)
            _both(fast, reference, lambda s: s.controller.activate(
                bank, row, at, requestor="noise"))
        elif kind == "write":
            _, bank, row, delay = step
            _both(fast, reference, lambda s: s.controller.access_finish(
                s.controller.address_of(bank, row, 64), issued + delay,
                requestor="writer", is_write=True))
        elif kind == "lock":
            _, mask, delay = step
            _both(fast, reference, lambda s: s.controller.rowclone(
                s.controller.address_of(0, 7), s.controller.address_of(0, 9),
                mask, finish + delay, requestor="setup"))
        elif kind == "rebase":
            _both(fast, reference, lambda s: s.controller.rebase_time())
            window = (0, 0)
        elif kind == "reset":
            _both(fast, reference, lambda s: s.controller.reset_stats())
        else:
            # One rescan with a Tracer on the fast twin's controller or
            # engine, which sends it through execute_parallel.
            _, on_controller, delay = step
            target = fast.controller if on_controller else fast.pei
            target.set_observer(Tracer())
            window = _rescan_step(fast, reference, finish + delay)
            target.set_observer(None)
        _assert_same_state(fast, reference)
    assert _bank_state(fast.controller) == _bank_state(reference.controller)
