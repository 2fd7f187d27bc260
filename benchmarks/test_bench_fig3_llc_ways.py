"""Fig. 3: impact of LLC associativity on throughput + eviction latency.

Paper: at a fixed 16 MB LLC, raising the way count from 2 to 128 inflates
the eviction set (one access per way) and the lookup latency, collapsing
the baseline attack's throughput; the direct attack is unaffected.

Runs through :mod:`repro.exp` (parallel workers, every point computed).
The paper's claims for these points gate tier-1 (``SIDECHANNEL_CLAIMS``
in ``tests/test_golden_sidechannel.py``).
"""

from repro.exp.figures import fig3_sweep

LLC_WAYS = [2, 4, 8, 16, 32, 64, 128]


def test_fig3_llc_ways_sweep(result_table, run_points):
    points = fig3_sweep(LLC_WAYS)
    outcome = run_points(points)
    rows = list(zip(LLC_WAYS, outcome.results))
    table = result_table(
        "fig3_llc_ways",
        ["llc_ways", "direct_mbps", "baseline_mbps", "eviction_latency_cycles"],
        title="Fig. 3: throughput + eviction latency vs LLC ways (16 MB)")
    for ways, point in rows:
        table.add(ways, round(point["direct_mbps"], 2),
                  round(point["baseline_mbps"], 2),
                  round(point["eviction_latency_cycles"]))
    table.emit()
