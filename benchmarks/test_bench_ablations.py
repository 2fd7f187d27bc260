"""Ablations: the design choices behind IMPACT's numbers.

Not a paper figure — these sweeps justify the attack parameters the paper
fixes (batch size 4, fine-grained rdtscp, open-row without timeout) and
quantify the §5.1/§7 discussion points (noise sensitivity, coarse-timer
mitigation, refresh, FEC goodput).
"""

from dataclasses import replace

from repro import System, SystemConfig
from repro.analysis import fec_assessment
from repro.attacks import DmaEngineChannel, ImpactPnmChannel
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry
from repro.sim import TimerConfig


def base_config():
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=64, rows_per_bank=8192),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=8.0,
                                  prefetchers_enabled=False))


def test_ablation_batch_size(result_table):
    """Why batch 4: one-bit batches burn a semaphore round per bit, huge
    batches stop overlapping sender and receiver work."""
    def sweep():
        results = {}
        for batch in (1, 2, 4, 8, 16):
            channel = ImpactPnmChannel(System(base_config()),
                                       batch_size=batch)
            results[batch] = channel.transmit_random(512, seed=3)
        return results

    results = sweep()
    table = result_table("ablation_batch_size",
                         ["batch_size", "throughput_mbps", "error_rate"],
                         title="Ablation: IMPACT-PnM batch size (paper: 4)")
    for batch, r in results.items():
        table.add(batch, round(r.throughput_mbps, 2), round(r.error_rate, 3))
    table.emit()
    assert results[4].throughput_mbps > results[1].throughput_mbps
    assert all(r.error_rate == 0.0 for r in results.values())


def test_ablation_noise_sensitivity(result_table):
    """§5.1: noise sources degrade the channel gracefully, not abruptly."""
    def sweep():
        results = {}
        for rate in (0.0, 0.5, 1.0, 2.0, 4.0):
            config = base_config().with_noise(rate_per_kilocycle=rate)
            results[rate] = ImpactPnmChannel(System(config)) \
                .transmit_random(512, seed=4)
        return results

    results = sweep()
    table = result_table("ablation_noise",
                         ["noise_per_kc", "throughput_mbps", "error_rate"],
                         title="Ablation: IMPACT-PnM vs background activation noise")
    for rate, r in results.items():
        table.add(rate, round(r.throughput_mbps, 2), round(r.error_rate, 3))
    table.emit()
    errors = [results[rate].error_rate for rate in sorted(results)]
    assert errors[0] == 0.0
    assert errors[-1] > errors[0]
    assert errors[-1] < 0.45  # degraded, not dead


def test_ablation_timer_granularity(result_table):
    """§7: restricting fine-grained timers (Apple-M1-style) as a defense.
    The channel survives until the timer quantum exceeds the ~70-cycle
    hit/conflict gap, then collapses — at the cost of breaking every
    latency-sensitive legitimate application."""
    # Measured probe latencies on this system: hit ~114, conflict ~184.
    HIT, CONFLICT = 114, 184

    def adaptive_threshold(resolution):
        """The attacker recalibrates against the quantized distributions."""
        quantized_hit = (HIT // resolution) * resolution
        quantized_conflict = (CONFLICT // resolution) * resolution
        if quantized_conflict == quantized_hit:
            return 150  # channel dead; threshold is irrelevant
        return (quantized_hit + quantized_conflict) // 2

    def sweep():
        results = {}
        for resolution in (1, 16, 64, 128, 256, 512):
            config = replace(base_config(), timer=TimerConfig(
                read_overhead_cycles=20, resolution_cycles=resolution))
            channel = ImpactPnmChannel(
                System(config),
                threshold_cycles=max(1, adaptive_threshold(resolution)))
            results[resolution] = channel.transmit_random(384, seed=5)
        return results

    results = sweep()
    table = result_table("ablation_timer",
                         ["timer_resolution_cycles", "throughput_mbps",
                          "error_rate"],
                         title="Ablation: coarse-timer mitigation (§7), "
                               "attacker recalibrates the threshold")
    for resolution, r in results.items():
        table.add(resolution, round(r.throughput_mbps, 2),
                  round(r.error_rate, 3))
    table.emit()
    assert results[1].error_rate == 0.0
    assert results[128].error_rate < 0.05  # the 70-cycle gap survives 128
    assert results[256].error_rate > 0.30  # quantum swallows the gap
    assert results[512].error_rate > 0.30


def test_ablation_row_timeout(result_table):
    """Table 2 lists a 100 ns open-row timeout.  With it enabled, rows
    close before the pipelined receiver probes them (both symbols decode
    as EMPTY) — an accidental defense the attacker must counter by
    shrinking the batch to probe sooner."""
    def sweep():
        results = {}
        for label, timeout_ns, batch in (("no timeout, batch 4", 0.0, 4),
                                         ("100ns timeout, batch 4", 100.0, 4),
                                         ("100ns timeout, batch 1", 100.0, 1)):
            config = base_config()
            config = replace(config, timings=replace(
                config.timings, row_timeout_ns=timeout_ns))
            channel = ImpactPnmChannel(System(config), batch_size=batch)
            results[label] = channel.transmit_random(256, seed=6)
        return results

    results = sweep()
    table = result_table("ablation_row_timeout",
                         ["configuration", "throughput_mbps", "error_rate"],
                         title="Ablation: open-row timeout vs IMPACT-PnM")
    for label, r in results.items():
        table.add(label, round(r.throughput_mbps, 2), round(r.error_rate, 3))
    table.emit()
    assert results["no timeout, batch 4"].error_rate == 0.0
    assert (results["100ns timeout, batch 4"].error_rate
            > results["no timeout, batch 4"].error_rate)


def test_ablation_refresh_noise(result_table):
    """Periodic refresh closes rows mid-transmission: a small, bounded
    error floor (§5.1 noise sources)."""
    def sweep():
        results = {}
        for refresh in (False, True):
            config = replace(base_config(), refresh_enabled=refresh)
            results[refresh] = ImpactPnmChannel(System(config)) \
                .transmit_random(512, seed=7)
        return results

    results = sweep()
    table = result_table("ablation_refresh",
                         ["refresh_enabled", "throughput_mbps", "error_rate"],
                         title="Ablation: DRAM refresh as a noise source")
    for refresh, r in results.items():
        table.add(refresh, round(r.throughput_mbps, 2), round(r.error_rate, 3))
    table.emit()
    assert results[True].error_rate >= results[False].error_rate
    assert results[True].error_rate < 0.25


def test_ablation_fec_goodput(result_table):
    """From raw leakage to usable bits: Hamming(7,4) over the noisy
    channels turns error rates into goodput."""
    def sweep():
        noisy = base_config().with_noise(rate_per_kilocycle=2.0)
        rows = []
        for name, channel in (
                ("IMPACT-PnM (noisy)", ImpactPnmChannel(System(noisy))),
                ("DMA-engine", DmaEngineChannel(System(base_config())))):
            result = channel.transmit_random(512, seed=8)
            rows.append((name, result,
                         fec_assessment(result.raw_throughput_mbps,
                                        result.error_rate)))
        return rows

    rows = sweep()
    table = result_table("ablation_fec",
                         ["channel", "raw_mbps", "error", "goodput_mbps",
                          "residual_error"],
                         title="Ablation: Hamming(7,4) goodput on noisy channels")
    for name, result, fec in rows:
        table.add(name, round(result.raw_throughput_mbps, 2),
                  round(result.error_rate, 3), round(fec.goodput_mbps, 2),
                  round(fec.residual_error_rate, 4))
        assert fec.residual_error_rate <= result.error_rate + 1e-9
    table.emit()


def test_ablation_memory_scheduling_policy(result_table):
    """FCFS vs FR-FCFS on the Fig. 11 workload miss streams: FR-FCFS's
    row-hit-first reordering is why the open-row policy is worth
    defending (and why CRP's Fig. 11 cost exists at all)."""
    from repro.dram import (RequestScheduler, SchedulingPolicy,
                            requests_from_refs)
    from repro.dram.address import DRAMGeometry
    from repro.dram.timings import DRAMTimings
    from repro.workloads import workload_spec

    geometry = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=65536)
    timings = DRAMTimings()

    def sweep():
        from repro.dram.address import make_mapping
        mapping = make_mapping("row", geometry)
        rows = []
        for name in ("PR", "CC"):
            refs = workload_spec(name).refs(max_refs=6000)
            requests = requests_from_refs(refs, geometry, mapping,
                                          arrival_gap=12)
            row = {"workload": name}
            for policy in (SchedulingPolicy.FCFS, SchedulingPolicy.FRFCFS):
                scheduler = RequestScheduler(geometry, timings, policy=policy)
                stats = scheduler.schedule(requests)
                row[policy.value] = stats
            rows.append(row)
        return rows

    rows = sweep()
    table = result_table(
        "ablation_scheduling",
        ["workload", "policy", "row_hit_rate", "mean_latency", "makespan"],
        title="Ablation: FCFS vs FR-FCFS request scheduling")
    for row in rows:
        for policy in ("fcfs", "frfcfs"):
            stats = row[policy]
            table.add(row["workload"], policy,
                      round(stats.row_hit_rate, 3),
                      round(stats.mean_latency, 1), stats.makespan)
    table.emit()
    for row in rows:
        assert row["frfcfs"].row_hit_rate >= row["fcfs"].row_hit_rate
        assert row["frfcfs"].makespan <= row["fcfs"].makespan


def test_ablation_pei_offload_speedup(result_table):
    """The adoption premise (§1): PiM is deployed because it wins.  Our
    PEI engine accelerates low-locality PageRank gathers — the same
    substrate the attacks then abuse."""
    from repro.workloads import generate_graph
    from repro.workloads.kernels import Layout
    from repro.workloads.pim_apps import pei_speedup, run_pagerank

    def small_llc():
        return SystemConfig(
            geometry=DRAMGeometry(ranks=1, banks_per_rank=64,
                                  rows_per_bank=65536),
            hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=0.25,
                                      l2_size_kb=64))

    def sweep():
        graph = generate_graph(3000, avg_degree=8, seed=2)
        layout = Layout(node_bytes=256, edge_bytes=16)
        host = run_pagerank(System(small_llc()), graph, layout, mode="host")
        pei = run_pagerank(System(small_llc()), graph, layout, mode="pei")
        return host, pei

    host, pei = sweep()
    table = result_table(
        "ablation_pei_speedup",
        ["mode", "cycles_per_edge", "pei_memory_ops", "cache_accesses"],
        title="Ablation: PEI-offloaded PageRank vs host execution")
    table.add("host", round(host.cycles_per_edge, 1), host.pei_memory_ops,
              host.hierarchy_accesses)
    table.add("pei", round(pei.cycles_per_edge, 1), pei.pei_memory_ops,
              pei.hierarchy_accesses)
    table.emit()
    speedup = pei_speedup(host, pei)
    print(f"PEI offload speedup: {speedup:.2f}x")
    assert speedup > 1.5


def test_ablation_multi_pair_scaling(result_table):
    """Extension: aggregate IMPACT-PnM throughput with k concurrent
    sender/receiver pairs on disjoint bank subsets — the bank-level
    parallelism headroom beyond the paper's single-pair evaluation."""
    from repro.attacks import run_multi_pair

    def sweep():
        results = {}
        for pairs in (1, 2, 4, 8):
            results[pairs] = run_multi_pair(
                System(SystemConfig.paper_default()), pairs,
                bits_per_pair=256)
        return results

    results = sweep()
    table = result_table(
        "ablation_multi_pair",
        ["pairs", "aggregate_mbps", "per_pair_mbps", "worst_error"],
        title="Ablation: concurrent IMPACT-PnM pairs (disjoint banks)")
    for pairs, r in results.items():
        table.add(pairs, round(r.aggregate_throughput_mbps, 2),
                  round(r.aggregate_throughput_mbps / pairs, 2),
                  round(r.worst_error_rate, 3))
    table.emit()
    assert results[1].aggregate_throughput_mbps < \
        results[4].aggregate_throughput_mbps
    assert all(r.worst_error_rate == 0.0 for r in results.values())
