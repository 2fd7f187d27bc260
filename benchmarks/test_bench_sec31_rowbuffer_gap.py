"""§3.1 microbenchmark: the row-buffer hit/conflict latency gap.

Paper: "a row buffer conflict takes 74 CPU cycles more than a hit, which
is large enough to detect."  The measurement is the benchmark's own
``sec31_point``; its 60-85 cycle claim gates tier-1
(``SIDECHANNEL_CLAIMS`` in ``tests/test_golden_sidechannel.py``).
"""

from perfbench.points import sec31_point


def test_sec31_row_buffer_gap(result_table):
    latencies = sec31_point()
    gap = latencies["conflict"] - latencies["hit"]
    table = result_table(
        "sec31_rowbuffer_gap",
        ["measurement", "cycles", "paper"],
        title="Sec 3.1: row-buffer hit vs conflict latency (CPU cycles)")
    table.add("row-buffer hit", latencies["hit"], "-")
    table.add("row-buffer conflict", latencies["conflict"], "-")
    table.add("conflict - hit gap", gap, "~74")
    table.emit()
