"""Fig. 2: impact of LLC size on covert-channel throughput + eviction cost.

Paper: direct-memory-access attack sustains 11.27 Mb/s across all LLC
sizes; the baseline (eviction) attack peaks at 2.29 Mb/s and degrades as
the LLC (and its lookup latency) grows; eviction latency rises with size.

The sweep runs through :mod:`repro.exp`: points fan out across worker
processes, and every run computes every point.  The paper's claims for
these points gate tier-1 (``SIDECHANNEL_CLAIMS`` in
``tests/test_golden_sidechannel.py``).
"""

from repro.exp.figures import fig2_sweep

LLC_SIZES_MB = [2, 4, 8, 16, 32, 64]


def test_fig2_llc_size_sweep(result_table, run_points):
    points = fig2_sweep(LLC_SIZES_MB)
    outcome = run_points(points)
    rows = list(zip(LLC_SIZES_MB, outcome.results))
    table = result_table(
        "fig2_llc_size",
        ["llc_mb", "direct_mbps", "baseline_mbps", "eviction_latency_cycles"],
        title="Fig. 2: throughput + eviction latency vs LLC size (16-way)")
    for size, point in rows:
        table.add(size, round(point["direct_mbps"], 2),
                  round(point["baseline_mbps"], 2),
                  round(point["eviction_latency_cycles"]))
    table.emit()
