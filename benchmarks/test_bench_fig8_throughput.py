"""Fig. 8: covert-channel throughput across LLC sizes, all seven attacks.

Paper's five key observations (§5.3):
  1. IMPACT-PnM (12.87 Mb/s) and IMPACT-PuM (14.16 Mb/s) dominate every
     other vector, independent of LLC size — up to 4.91x / 5.41x the
     state-of-the-art DRAMA-clflush.
  2. IMPACT-PuM beats IMPACT-PnM by ~10% (parallel RowClone sender).
  3. DRAMA-eviction, DRAMA-clflush, and Streamline degrade as the LLC
     grows (lookup latency tax).
  4. The DMA attack is flat (~5.27 Mb/s) but ~2.4x slower than IMPACT-PnM
     (software-stack overheads).
  5. PnM-OffChip peaks at ~12.6 Mb/s and falls as the predictor caches
     more on larger LLCs.

DRAMA and Streamline follow the paper's methodology: Streamline is the
analytical upper bound validated against its published hardware numbers;
the DRAMA variants are fully simulated.

Each LLC size is one :mod:`repro.exp` sweep point
(:func:`repro.exp.figures.fig8_point`), so the four sizes run on four
worker processes.

The claims that read only the 8 and 64 MB points gate tier-1
(``FIG8_CLAIMS`` in ``tests/test_golden_fig8.py``); the assertions below
loop over every size, so they also cover 16 and 32 MB.
"""

from repro.exp.figures import fig8_sweep

LLC_SIZES_MB = [8, 16, 32, 64]

ATTACKS = ["DRAMA-eviction", "DRAMA-clflush", "Streamline",
           "Streamline-bound", "DMA-engine", "PnM-OffChip", "IMPACT-PnM",
           "IMPACT-PuM"]


def test_fig8_throughput_across_llc_sizes(result_table, run_points):
    sweep = fig8_sweep(LLC_SIZES_MB)
    outcome = run_points(sweep)
    points = dict(zip(LLC_SIZES_MB, outcome.results))
    table = result_table(
        "fig8_throughput",
        ["llc_mb"] + ATTACKS,
        title="Fig. 8: covert-channel throughput (Mb/s) vs LLC size")
    for size in LLC_SIZES_MB:
        table.add(size, *[round(points[size][a], 2) for a in ATTACKS])
    table.emit()

    # Observation 1: IMPACT dominates everywhere.
    for size in LLC_SIZES_MB:
        p = points[size]
        others = [p[a] for a in ATTACKS if not a.startswith("IMPACT")]
        assert p["IMPACT-PnM"] > max(others)
        assert p["IMPACT-PuM"] > max(others)

    # Observation 2: PuM ~10% above PnM.
    for size in LLC_SIZES_MB:
        advantage = points[size]["IMPACT-PuM"] / points[size]["IMPACT-PnM"]
        assert 1.02 < advantage < 1.20

    # The simulated Streamline respects its §5.1 analytical upper bound.
    for size in LLC_SIZES_MB:
        assert points[size]["Streamline"] <= points[size]["Streamline-bound"]
