"""Equivalence tests: batched operations, the scheduler run-to-block fast
path, and BackgroundNoise window semantics."""

import random

import pytest

from repro.config import SystemConfig
from repro.sim import Barrier, DeadlockError, Scheduler, Semaphore
from repro.system import BackgroundNoise, System


# ----------------------------------------------------------------------
# Batched operation API
# ----------------------------------------------------------------------


def _addrs(count, stride=64, mod=1 << 21, mul=5):
    return [(i * stride * mul) % mod for i in range(count)]


def _hierarchy_state(hierarchy):
    """Everything a hierarchy carries from one access to the next: each
    level's tags, dirty bits, line map, fill counts, replacement state
    (LRU's per-set recency, or SRRIP RRPVs) and stats; each core's
    prefetchers' tables, in LRU order; the in-flight fills; the NT RNG;
    and the hierarchy stats, by requestor included."""
    def recency(cache):
        # Dict equality ignores order, so each set's order is a list of
        # its slots, least recently used first.
        if cache._order is None:
            return None
        return [None if order is None else list(order)
                for order in cache._order]

    return {
        "caches": [(cache._tags, cache._dirty, cache._where, cache._filled,
                    recency(cache), cache._rrpv, cache.stats)
                   for cache in (*hierarchy.l1, *hierarchy.l2,
                                 hierarchy.llc)],
        "prefetchers": [hierarchy.prefetcher_state(core)
                        for core in range(hierarchy.config.num_cores)],
        "inflight_fills": hierarchy._inflight_fills,
        "nt_rng": hierarchy._nt_rng.getstate(),
        "stats": hierarchy.stats,
    }


def test_access_batch_matches_chained_accesses():
    addrs = _addrs(4000)
    loop_sys = System(SystemConfig.paper_default())
    batch_sys = System(SystemConfig.paper_default())
    now = 100
    for addr in addrs:
        result = loop_sys.hierarchy.access(0, addr, now, pc=7,
                                           requestor="cpu")
        now = result.finish
    batch_finish = batch_sys.hierarchy.access_batch(0, addrs, 100, pc=7,
                                                    requestor="cpu")
    assert batch_finish == now
    assert (batch_sys.hierarchy.stats.demand_accesses
            == loop_sys.hierarchy.stats.demand_accesses)
    assert (batch_sys.hierarchy.llc.stats.misses
            == loop_sys.hierarchy.llc.stats.misses)
    assert (batch_sys.controller.requestor_stats.keys()
            == loop_sys.controller.requestor_stats.keys())
    for name, stats in loop_sys.controller.requestor_stats.items():
        other = batch_sys.controller.requestor_stats[name]
        assert (stats.reads, stats.hits, stats.conflicts) == \
            (other.reads, other.hits, other.conflicts)
    assert (_hierarchy_state(batch_sys.hierarchy)
            == _hierarchy_state(loop_sys.hierarchy))


def test_access_batch_accepts_a_generator():
    addrs = _addrs(800)
    list_sys = System(SystemConfig.paper_default())
    gen_sys = System(SystemConfig.paper_default())
    finish = list_sys.hierarchy.access_batch(0, addrs, 100)
    generated = (addr for addr in addrs)
    assert gen_sys.hierarchy.access_batch(0, generated, 100) == finish
    assert (gen_sys.hierarchy.llc.stats.misses
            == list_sys.hierarchy.llc.stats.misses)


def test_load_many_matches_load_loop():
    addrs = _addrs(1500, mul=11)
    loop_sys = System(SystemConfig.paper_default())
    batch_sys = System(SystemConfig.paper_default())

    def loop_body(ctx):
        for addr in addrs:
            loop_sys.load(ctx, 0, addr, requestor="cpu")
        yield None

    def batch_body(ctx):
        batch_sys.load_many(ctx, 0, addrs, requestor="cpu")
        yield None

    sched_a = Scheduler()
    thread_a = sched_a.spawn(loop_body)
    sched_a.run()
    sched_b = Scheduler()
    thread_b = sched_b.spawn(batch_body)
    sched_b.run()
    assert thread_a.now == thread_b.now
    assert (loop_sys.hierarchy.llc.stats.misses
            == batch_sys.hierarchy.llc.stats.misses)


def test_probe_batch_matches_individual_latencies():
    addrs = _addrs(600, mul=3)
    loop_sys = System(SystemConfig.paper_default())
    batch_sys = System(SystemConfig.paper_default())

    loop_latencies = []

    def loop_body(ctx):
        for addr in addrs:
            result = loop_sys.load(ctx, 0, addr, requestor="cpu")
            loop_latencies.append(result.latency)
        yield None

    batch_latencies = []

    def batch_body(ctx):
        finish, latencies = batch_sys.hierarchy.probe_batch(
            0, addrs, ctx.now, requestor="cpu")
        ctx.advance_to(finish)
        batch_latencies.extend(latencies)
        yield None

    sched = Scheduler()
    sched.spawn(loop_body)
    sched.run()
    sched = Scheduler()
    sched.spawn(batch_body)
    sched.run()
    assert loop_latencies == batch_latencies


# ----------------------------------------------------------------------
# Scheduler run-to-block fast path
# ----------------------------------------------------------------------


def _random_workload(seed):
    """Randomized deadlock-free plans mixing all three primitive kinds.

    Barrier parties never acquire (a party stuck on the semaphore could
    starve the barrier); every acquire is covered by a dedicated,
    always-runnable releaser thread.
    """
    rng = random.Random(seed)
    barrier_parties = rng.randint(2, 3)
    plans = []
    for _ in range(barrier_parties):
        steps = []
        for _ in range(rng.randint(5, 20)):
            if rng.random() < 0.7:
                steps.append(("advance", rng.randint(0, 9)))
            else:
                steps.append(("barrier",))
        plans.append(steps)
    # Barriers must be hit the same number of times by every party.
    most = max(sum(s == ("barrier",) for s in plan) for plan in plans)
    for t in range(barrier_parties):
        short = most - sum(s == ("barrier",) for s in plans[t])
        plans[t] = plans[t] + [("barrier",)] * short
    acquires = 0
    for _ in range(rng.randint(1, 2)):
        steps = []
        for _ in range(rng.randint(5, 20)):
            if rng.random() < 0.7:
                steps.append(("advance", rng.randint(0, 9)))
            else:
                steps.append(("acquire",))
                acquires += 1
        plans.append(steps)
    releaser = []
    for _ in range(acquires):
        releaser.append(("advance", rng.randint(0, 9)))
        releaser.append(("release",))
    plans.append(releaser or [("advance", 1)])
    return plans, barrier_parties


def _run_plans(plans, barrier_parties, fast_path):
    sched = Scheduler(fast_path=fast_path)
    sem = Semaphore(initial=0, name="s")
    barrier = Barrier(barrier_parties, name="b")
    trace = []

    def body(ctx, steps):
        for step in steps:
            if step[0] == "advance":
                ctx.advance(step[1])
                trace.append((ctx.name, ctx.now))
                yield None
            elif step[0] == "acquire":
                yield sem.acquire()
                trace.append((ctx.name, ctx.now, "acq"))
            elif step[0] == "release":
                yield sem.release()
            else:
                yield barrier.wait()
                trace.append((ctx.name, ctx.now, "bar"))

    for i, steps in enumerate(plans):
        sched.spawn(body, steps, name=f"t{i}")
    end = sched.run()
    return end, trace, sched.fast_resumes


@pytest.mark.parametrize("seed", range(20))
def test_fast_and_slow_paths_produce_identical_traces(seed):
    plans, parties = _random_workload(seed)
    end_fast, trace_fast, resumes_fast = _run_plans(plans, parties, True)
    end_slow, trace_slow, resumes_slow = _run_plans(plans, parties, False)
    assert end_fast == end_slow
    assert trace_fast == trace_slow
    assert resumes_slow == 0  # slow path never takes the inline resume


def test_fast_path_counts_inline_resumes():
    sched = Scheduler()

    def lone(ctx):
        for _ in range(50):
            ctx.advance(1)
            yield None

    sched.spawn(lone)
    sched.run()
    assert sched.fast_resumes == 50


def test_bounded_run_is_resumable_with_fast_path():
    sched = Scheduler()
    seen = []

    def body(ctx):
        for _ in range(10):
            ctx.advance(10)
            seen.append(ctx.now)
            yield None

    sched.spawn(body)
    sched.run(until=35)
    mid = list(seen)
    assert max(mid) <= 45  # paused near the bound, not run to completion
    assert len(mid) < 10
    sched.run()
    assert seen == [10 * (i + 1) for i in range(10)]


def test_deadlock_error_names_the_primitive():
    sched = Scheduler()
    sem = Semaphore(name="handshake")

    def waiter(ctx):
        yield sem.acquire()

    sched.spawn(waiter, name="stuck")
    with pytest.raises(DeadlockError, match=r"stuck.*handshake"):
        sched.run()


# ----------------------------------------------------------------------
# BackgroundNoise windows
# ----------------------------------------------------------------------


def _make_noise(rate, seed=7):
    system = System(SystemConfig.paper_default())
    return BackgroundNoise(system.controller, rate, seed)


def test_noise_zero_rate_never_fires():
    noise = _make_noise(0.0)
    assert noise.run(0, 1_000_000) == 0
    assert noise.injected == 0


def test_noise_empty_or_inverted_window_fires_nothing():
    noise = _make_noise(5.0)
    assert noise.run(100, 100) == 0
    assert noise.run(100, 50) == 0


def test_noise_contiguous_windows_match_one_big_window():
    big = _make_noise(5.0)
    split = _make_noise(5.0)
    total_big = big.run(0, 60_000)
    total_split = sum(split.run(start, start + 10_000)
                      for start in range(0, 60_000, 10_000))
    # The pending-event state carries across contiguous windows, so
    # splitting the window must not create or drop events.
    assert total_big == total_split
    assert big.injected == split.injected


def test_noise_event_spanning_a_gap_is_rescheduled_not_replayed():
    noise = _make_noise(0.05)  # sparse: mean gap 20k cycles
    noise.run(0, 1000)
    pending = noise._next_event
    assert pending is not None and pending >= 1000
    # A window far past the pending event reschedules from its start
    # rather than firing stale events from the skipped-over gap.
    far_start = pending + 500_000
    fired = noise.run(far_start, far_start + 1)
    assert fired == 0
    assert noise._next_event >= far_start

