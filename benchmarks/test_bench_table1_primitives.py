"""Table 1: efficiency and effectiveness of attack primitives.

Prints the paper's qualitative property matrix alongside the *measured*
cost of one direct-memory observation per primitive on the Table 2
system — the quantitative story behind the check marks.  The paper's
claims on those latencies gate tier-1 (``SIDECHANNEL_CLAIMS`` in
``tests/test_golden_sidechannel.py``).
"""

from repro import System, SystemConfig
from repro.attacks import TABLE1, measure_all


def test_table1_attack_primitives(result_table):
    latencies = measure_all(System(SystemConfig.paper_default()))
    table = result_table(
        "table1_primitives",
        ["primitive", "no_cache_lookup", "no_excessive_accesses",
         "timing_detectability", "isa_guarantee", "probe_cycles"],
        title="Table 1: attack primitives (+ measured probe latency)")
    for props in TABLE1:
        row = props.row()
        table.add(row["primitive"], row["no_cache_lookup"],
                  row["no_excessive_accesses"], row["timing_detectability"],
                  row["isa_guarantee"], latencies[props.name])
    table.emit()
