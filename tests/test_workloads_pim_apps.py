"""Tests for PEI-offloaded PageRank and the async PEI issue path."""

import pytest

from repro import System, SystemConfig
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry
from repro.pim import ExecutionSite
from repro.sim import Scheduler
from repro.workloads import generate_graph
from repro.workloads.kernels import Layout
from repro.workloads.pim_apps import PimAppResult, pei_speedup, run_pagerank


def small_llc_config():
    """Rank array (768 KB) >> LLC (256 KB): the PEI-favourable regime."""
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=64,
                              rows_per_bank=65536),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=0.25,
                                  l2_size_kb=64))


GRAPH = generate_graph(1500, avg_degree=8, seed=2)
LAYOUT = Layout(node_bytes=256, edge_bytes=16)


# ---------------------------------------------------------------------------
# Async PEI issue
# ---------------------------------------------------------------------------

def test_async_pei_costs_only_issue_slot():
    system = System(small_llc_config())
    addr = system.address_of(bank=3, row=9)

    def body(ctx, sys_):
        t0 = ctx.now
        result = sys_.pei_op_async(ctx, addr)
        issue_cost = ctx.now - t0
        yield None
        # The completions not yet retired by a fence.
        return issue_cost, result, tuple(ctx._pending)

    sched = Scheduler()
    thread = sched.spawn(body, system)
    sched.run()
    issue_cost, result, pending = thread.result
    assert issue_cost == system.config.pei.issue_cycles
    assert result.site is ExecutionSite.MEMORY
    assert pending == (result.finish,)


def test_async_pei_fence_waits_for_completion():
    system = System(small_llc_config())
    addrs = [system.address_of(bank=b, row=9) for b in range(8)]

    def body(ctx, sys_):
        results = [sys_.pei_op_async(ctx, addr) for addr in addrs]
        issue_done = ctx.now
        ctx.fence()
        yield None
        return issue_done, ctx.now, max(r.finish for r in results)

    sched = Scheduler()
    thread = sched.spawn(body, system)
    sched.run()
    issue_done, fenced, last_finish = thread.result
    assert issue_done < last_finish
    assert fenced == last_finish


def test_async_pei_overlaps_across_banks():
    """Eight fire-and-forget PEIs to eight banks complete in roughly one
    DRAM access, not eight."""
    system = System(small_llc_config())
    addrs = [system.address_of(bank=b, row=9) for b in range(8)]

    def body(ctx, sys_):
        t0 = ctx.now
        for addr in addrs:
            sys_.pei_op_async(ctx, addr)
        ctx.fence()
        yield None
        return ctx.now - t0

    sched = Scheduler()
    thread = sched.spawn(body, system)
    sched.run()
    single = system.config.pei.network_cycles * 2 + 150
    assert thread.result < 2 * single


# ---------------------------------------------------------------------------
# PageRank host vs PEI
# ---------------------------------------------------------------------------

def test_pagerank_pei_beats_host_on_low_locality():
    """The PEI premise [67]: offloaded gathers win when the rank array
    overwhelms the caches."""
    host = run_pagerank(System(small_llc_config()), GRAPH, LAYOUT,
                        mode="host")
    pei = run_pagerank(System(small_llc_config()), GRAPH, LAYOUT, mode="pei")
    assert pei.edges_processed == host.edges_processed
    assert pei_speedup(host, pei) > 1.3


def test_pagerank_pei_traffic_goes_to_memory_pcus():
    pei = run_pagerank(System(small_llc_config()), GRAPH, LAYOUT, mode="pei")
    assert pei.pei_memory_ops > 0.9 * pei.edges_processed
    # CSR streaming still uses the caches.
    assert pei.hierarchy_accesses > 0


def test_pagerank_host_mode_issues_no_peis():
    host = run_pagerank(System(small_llc_config()), GRAPH, LAYOUT,
                        mode="host")
    assert host.pei_memory_ops == 0
    assert host.pei_host_ops == 0


def test_pagerank_cache_friendly_regime_prefers_host():
    """With a rank array that fits in the LLC, the host's caches win —
    the PMU-side of the PEI trade-off."""
    config = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=64,
                              rows_per_bank=65536),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=8.0))
    small_layout = Layout(node_bytes=32, edge_bytes=16)
    host = run_pagerank(System(config), GRAPH, small_layout, mode="host")
    pei = run_pagerank(System(config), GRAPH, small_layout, mode="pei")
    assert host.cycles_per_edge < pei.cycles_per_edge * 1.2


def test_pagerank_validation():
    system = System(small_llc_config())
    with pytest.raises(ValueError):
        run_pagerank(system, GRAPH, LAYOUT, mode="gpu")
    with pytest.raises(ValueError):
        run_pagerank(system, GRAPH, LAYOUT, iterations=0)


def test_result_metrics():
    r = PimAppResult(mode="host", cycles=100, edges_processed=50,
                     pei_memory_ops=0, pei_host_ops=0, hierarchy_accesses=10)
    assert r.cycles_per_edge == 2.0
    empty = PimAppResult(mode="host", cycles=0, edges_processed=0,
                         pei_memory_ops=0, pei_host_ops=0,
                         hierarchy_accesses=0)
    assert empty.cycles_per_edge == 0.0
    assert pei_speedup(r, empty) == 0.0
