"""Unit and integration tests for graph workloads and the Fig. 11 runner."""

import random
from dataclasses import replace

import pytest

from repro import System, SystemConfig
from repro.cache import HierarchyConfig, IPStridePrefetcher, PrefetchSchedule
from repro.dram import DRAMGeometry
from repro.workloads import (
    KERNELS,
    CSRGraph,
    MemoryRef,
    RunResult,
    bc_kernel,
    bfs_kernel,
    cc_kernel,
    evaluate_defenses,
    fig11_config,
    generate_graph,
    pagerank_kernel,
    run_multiprogrammed,
    tc_kernel,
    workload_spec,
)
from repro.workloads.kernels import Layout
from tests.test_batching_fastpath import _hierarchy_state


def tiny_graph():
    return generate_graph(num_nodes=60, avg_degree=4, seed=1)


def tiny_system(cores=2, **hierarchy):
    hierarchy = {"llc_size_mb": 2.0, **hierarchy}
    return System(SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=cores, **hierarchy)))


# ---------------------------------------------------------------------------
# Graph generation
# ---------------------------------------------------------------------------

def test_graph_is_symmetric_and_sorted():
    g = tiny_graph()
    for u in range(g.num_nodes):
        neighbors = g.neighbors(u)
        assert list(neighbors) == sorted(neighbors)
        for v in neighbors:
            assert u in g.neighbors(v)


def test_graph_deterministic():
    a = generate_graph(100, 6, seed=3)
    b = generate_graph(100, 6, seed=3)
    assert a.edges == b.edges
    assert generate_graph(100, 6, seed=4).edges != a.edges


def test_graph_degree_near_target():
    g = generate_graph(400, avg_degree=8, seed=0)
    avg = len(g.edges) / g.num_nodes
    assert 4 <= avg <= 10


def test_graph_validation():
    with pytest.raises(ValueError):
        generate_graph(1)
    with pytest.raises(ValueError):
        generate_graph(10, avg_degree=0)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [bfs_kernel, pagerank_kernel, cc_kernel,
                                    tc_kernel, bc_kernel])
def test_kernels_emit_valid_refs(kernel):
    layout = Layout()
    refs = list(kernel(tiny_graph(), layout))
    assert refs
    for ref in refs:
        assert ref.addr >= layout.offsets_base
        assert ref.compute_cycles >= 0
        assert isinstance(ref.is_write, bool)


def test_bfs_visits_whole_connected_graph():
    g = tiny_graph()
    refs = list(bfs_kernel(g, Layout()))
    # Ring seeding makes the graph connected: every node's record is read.
    data_addrs = {r.addr for r in refs if r.addr >= Layout().data_base}
    assert len(data_addrs) >= g.num_nodes - 1


def test_cc_terminates_with_writes():
    refs = list(cc_kernel(tiny_graph(), Layout()))
    assert any(r.is_write for r in refs)


def test_pagerank_streams_edges_in_order():
    layout = Layout()
    refs = [r for r in pagerank_kernel(tiny_graph(), layout)
            if layout.edges_base <= r.addr < layout.data_base]
    addrs = [r.addr for r in refs]
    assert addrs == sorted(addrs)


def test_specs_cover_paper_workloads():
    assert set(KERNELS) == {"BC", "BFS", "CC", "TC", "PR"}
    assert workload_spec("bfs").name == "BFS"
    with pytest.raises(ValueError):
        workload_spec("SSSP")


def test_spec_refs_truncation():
    spec = workload_spec("PR")
    refs = spec.refs(max_refs=100)
    assert len(refs) == 100
    assert not hasattr(refs[0], "__dict__")  # slotted: 60k refs per stream


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_runner_replays_all_refs():
    system = tiny_system()
    stream = workload_spec("BC").refs(graph=tiny_graph(), max_refs=500)
    result = run_multiprogrammed(system, [stream, stream], warmup=False)
    assert result.refs == 1000
    assert result.cycles > 0
    assert result.instructions > result.refs


def _reference_replay(system, streams):
    """The replay with one lowest-time-first pick per reference, ties to
    the lower core index: the issue order the runner must keep."""
    access = system.hierarchy.access
    cursors = [0] * len(streams)
    times = [0] * len(streams)
    instructions = refs = llc_misses = 0
    active = [core for core, stream in enumerate(streams) if stream]
    while active:
        core = min(active, key=times.__getitem__)
        ref = streams[core][cursors[core]]
        result = access(core, ref.addr, times[core] + ref.compute_cycles,
                        is_write=ref.is_write, pc=ref.pc,
                        requestor=f"core{core}")
        times[core] = result.finish
        instructions += 1 + ref.compute_cycles
        refs += 1
        if result.hit_level == 0:
            llc_misses += 1
        cursors[core] += 1
        if cursors[core] == len(streams[core]):
            active.remove(core)
    return RunResult(cycles=max(times) if times else 0,
                     instructions=instructions, refs=refs,
                     llc_misses=llc_misses)


def _reference_run(system, streams, warmup=True):
    """``run_multiprogrammed`` with the prefetchers trained online, as
    each access reaches the hierarchy."""
    if warmup:
        _reference_replay(system, streams)
        system.controller.rebase_time()
        system.hierarchy.rebase_time()
        system.reset_stats()
    return _reference_replay(system, streams)


def _system_state(system):
    """The hierarchy's full state (tags, dirty bits, replacement state,
    stats by requestor, in-flight fills, each core's prefetcher tables)
    plus the controller's per-requestor stats and every bank's state."""
    controller = system.controller
    return {
        "hierarchy": _hierarchy_state(system.hierarchy),
        "requestors": controller.requestor_stats,
        "banks": [vars(bank) for bank in controller.device.banks],
    }


def _record_accesses(system):
    """Log each access the replay makes: core, address, issue time, write
    flag and requestor.  Both the runner and ``access`` go through
    ``demand``.  (The runner hands over precomputed prefetch candidates
    where the reference passes ``pc``.)"""
    calls = []
    demand = system.hierarchy.demand

    def recording(core, addr, issued, is_write=False, pc=None,
                  requestor="cpu", prefetch_lines=None):
        calls.append((core, addr, issued, is_write, requestor))
        return demand(core, addr, issued, is_write, pc, requestor,
                      prefetch_lines)

    system.hierarchy.demand = recording
    return calls


def _random_stream(rng, length, compute=None):
    return [MemoryRef(addr=rng.randrange(1 << 14) * 64,
                      is_write=rng.random() < 0.2, pc=rng.randrange(8),
                      compute_cycles=(rng.randrange(12) if compute is None
                                      else compute))
            for _ in range(length)]


@pytest.mark.parametrize("seed", range(3))
def test_runner_issue_order_matches_one_pick_per_reference(seed):
    rng = random.Random(seed)
    tied = _random_stream(rng, 300, compute=0)
    cases = [
        (2, [_random_stream(rng, 400), _random_stream(rng, 250)]),
        (3, [_random_stream(rng, n) for n in (300, 120, 260)]),
        (3, [_random_stream(rng, 200), [], _random_stream(rng, 310)]),
        (2, [tied, tied]),
        (3, [tied, tied, tied]),
    ]
    for cores, streams in cases:
        system, reference = tiny_system(cores), tiny_system(cores)
        calls = _record_accesses(system)
        expected_calls = _record_accesses(reference)
        result = run_multiprogrammed(system, streams, warmup=False)
        expected = _reference_replay(reference, streams)
        assert calls == expected_calls
        assert result == expected
        assert result.refs == sum(len(stream) for stream in streams)
        assert _system_state(system) == _system_state(reference)


def _small_system(prefetchers=True):
    """Two cores over 4 KB L1s, 16 KB L2s and a 64 KB LLC: prefetches
    evict, and some land late."""
    return tiny_system(2, l1_size_kb=4, l2_size_kb=16, llc_size_mb=0.0625,
                       prefetchers_enabled=prefetchers)


def _stride_to_top(system, count=40):
    """Rising strides that end at the top of DRAM, so the prefetchers
    propose lines past it."""
    top = system.controller.config.geometry.capacity_bytes
    return [MemoryRef(addr=top - 64 * (count - i), is_write=False, pc=5,
                      compute_cycles=1) for i in range(count)]


def _scheduled_vs_online(case):
    """Runs ``case`` on twin systems, scheduled and online, comparing each
    run; returns the prefetches and late-prefetch stalls they counted."""
    graph = generate_graph(600, 6, seed=2)
    pr = workload_spec("PR").refs(graph=graph, max_refs=1500)
    cc = workload_spec("CC").refs(graph=graph, max_refs=1200)
    system = _small_system(prefetchers=case != "no-prefetchers")
    reference = _small_system(prefetchers=case != "no-prefetchers")
    edge = _stride_to_top(system)
    runs = {
        "cold": [([pr, edge + cc], False)],
        "warm": [([pr, cc], True)],
        "shared": [([pr, pr], True)],
        "no-prefetchers": [([pr, cc], True)],
        "twice": [([pr, cc], True), ([cc, cc], False), ([pr, cc], True)],
    }[case]
    prefetches = stalls = 0
    for streams, warmup in runs:
        result = run_multiprogrammed(system, streams, warmup=warmup)
        expected = _reference_run(reference, streams, warmup=warmup)
        assert result == expected
        assert _system_state(system) == _system_state(reference)
        prefetches += system.hierarchy.stats.prefetches_issued
        stalls += system.hierarchy.stats.late_prefetch_stalls
    return prefetches, stalls


@pytest.mark.parametrize("case", ["cold", "warm", "shared",
                                  "no-prefetchers", "twice"])
def test_scheduled_replay_matches_online_training(case):
    """Replaying each core's prefetch schedule leaves the machine exactly
    as training the prefetchers online does: every run's result, every
    cache, the in-flight fills, the DRAM, and the prefetcher tables."""
    prefetches, stalls = _scheduled_vs_online(case)
    if case == "no-prefetchers":
        assert prefetches == 0
    else:
        assert prefetches > 0 and stalls > 0


def test_prefetch_schedule_applies_only_where_it_was_built():
    """A schedule replays only on a hierarchy with its prefetcher
    settings, line size and DRAM capacity, on prefetchers in the state it
    starts from, and with the stream it was built for."""
    stream = workload_spec("PR").refs(graph=tiny_graph(), max_refs=300)
    streams = [stream, stream]
    schedule = PrefetchSchedule(tiny_system().hierarchy, stream, passes=2)

    def rejects(system, schedules, warmup=True):
        before = _system_state(system)
        with pytest.raises(ValueError):
            run_multiprogrammed(system, streams, warmup=warmup,
                                schedules=schedules)
        assert _system_state(system) == before

    rejects(tiny_system(prefetchers_enabled=False), [schedule, schedule])
    rejects(tiny_system(line_bytes=128), [schedule, schedule])
    rejects(System(replace(tiny_system().config,
                           geometry=DRAMGeometry(ranks=1, banks_per_rank=16,
                                                 rows_per_bank=2048))),
            [schedule, schedule])
    trained = tiny_system()
    trained.hierarchy.access(1, 0x1000, 0, pc=3)
    rejects(trained, [schedule, schedule])
    rejects(tiny_system(), [schedule, PrefetchSchedule(
        tiny_system().hierarchy, stream[:-1], passes=2)])
    rejects(tiny_system(), [schedule])
    one_pass = PrefetchSchedule(tiny_system().hierarchy, stream, passes=1)
    rejects(tiny_system(), [one_pass, one_pass])
    # Other prefetcher settings than the hierarchy's factory builds.
    swapped = tiny_system()
    l1, l2 = swapped.hierarchy._prefetchers[0]
    swapped.hierarchy._prefetchers[0] = (IPStridePrefetcher(degree=3), l2)
    rejects(swapped, [schedule, schedule])
    with pytest.raises(ValueError):
        PrefetchSchedule(swapped.hierarchy, stream, passes=1)
    # The same schedule replays on any fresh twin, under any row policy,
    # and after a one-pass schedule's run on another.
    for policy in ("open", "crp", "ctd"):
        system = System(tiny_system().config.with_defense(policy))
        reference = System(tiny_system().config.with_defense(policy))
        assert (run_multiprogrammed(system, streams,
                                    schedules=[schedule, schedule])
                == _reference_run(reference, streams))
        assert _system_state(system) == _system_state(reference)
    cold = tiny_system()
    run_multiprogrammed(cold, streams, warmup=False,
                        schedules=[one_pass, one_pass])
    assert cold.hierarchy.prefetcher_state(0) == schedule.states[1]


def test_runner_counts_each_cores_references_in_the_hierarchy():
    """The warm-up's counters are reset: the hierarchy's per-core counts
    are the measured replay's."""
    stream = workload_spec("CC").refs(max_refs=3000)
    system = System(fig11_config())
    result = run_multiprogrammed(system, [stream, stream[:1000]])
    counters = system.hierarchy.stats.by_requestor
    assert counters["core0"].accesses == 3000
    assert counters["core1"].accesses == 1000
    assert (counters["core0"].llc_misses + counters["core1"].llc_misses
            == result.llc_misses)


def test_runner_warmup_reduces_misses():
    stream = workload_spec("BC").refs(graph=tiny_graph(), max_refs=500)
    cold = run_multiprogrammed(tiny_system(), [stream, stream], warmup=False)
    warm = run_multiprogrammed(tiny_system(), [stream, stream], warmup=True)
    assert warm.llc_misses <= cold.llc_misses


def test_runner_rejects_too_many_streams():
    system = tiny_system()
    with pytest.raises(ValueError):
        run_multiprogrammed(system, [[], [], []])


def test_evaluate_defenses_fig11_shape():
    """CTD slows things at least as much as CRP; both >= ~0 (small graphs
    here; the bench reproduces the full figure)."""
    ev = evaluate_defenses("PR", max_refs=4000)
    assert set(ev.results) == {"open", "crp", "ctd"}
    crp, ctd = ev.overhead("crp"), ev.overhead("ctd")
    assert ctd >= crp - 0.02
    assert ev.results["open"].cycles > 0
    row = ev.row()
    assert row["workload"] == "PR"


def test_mpki_metric():
    from repro.workloads import RunResult
    r = RunResult(cycles=1000, instructions=10_000, refs=1000, llc_misses=50)
    assert r.mpki == 5.0
