"""Fig. 10: read-mapping side-channel throughput + error rate vs banks.

Paper (§5.4): at 1024 banks the attacker leaks ~7.57 Mb/s with <5% error;
at 8192 banks the longer scans cut bandwidth to ~2.56 Mb/s and expose the
decode to more noise (<15% error) — while each leak becomes more precise
(fewer candidate hash-table entries per bank).

The victim schedule comes from the real minimizer-seeding pipeline over a
synthetic reference (the paper uses the human reference with synthetic
samples; the channel leaks positions, not biology).  Each worker process
rebuilds the identical seeded pipeline inside
:func:`repro.exp.figures.fig10_point`, so the four bank counts run in
parallel with bit-identical results.  The paper's claims for these points
gate tier-1 (``SIDECHANNEL_CLAIMS`` in
``tests/test_golden_sidechannel.py``).
"""

from repro.exp.figures import fig10_sweep

BANK_COUNTS = [1024, 2048, 4096, 8192]


def test_fig10_sidechannel_sweep(result_table, run_points):
    sweep = fig10_sweep(BANK_COUNTS)
    outcome = run_points(sweep)
    results = dict(zip(BANK_COUNTS, outcome.results))
    table = result_table(
        "fig10_sidechannel",
        ["banks", "throughput_mbps", "error_rate", "accuracy",
         "entries_per_bank"],
        title="Fig. 10: RM side-channel leakage vs DRAM bank count")
    for banks in BANK_COUNTS:
        r = results[banks]
        table.add(banks, round(r["throughput_mbps"], 2),
                  round(r["error_rate"], 3), round(r["accuracy"], 3),
                  round(r["entries_per_bank"], 2))
    table.emit()
