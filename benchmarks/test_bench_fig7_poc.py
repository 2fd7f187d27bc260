"""Fig. 7: proof-of-concept validation.

The receiver's measured latency per bank while decoding a 16-bit message,
for (a) IMPACT-PnM PEI probes and (b) IMPACT-PuM RowClone probes: hits
sit below the 150-cycle threshold, conflicts above, so the complete
message decodes with one fixed threshold.
"""

from repro import System, SystemConfig
from repro.analysis import split_by_bit, summarize_latencies
from repro.attacks import ImpactPnmChannel, ImpactPumChannel, random_bits

MESSAGE = random_bits(16, seed=42)
THRESHOLD = 150


def run_poc():
    pnm = ImpactPnmChannel(System(SystemConfig.paper_default()),
                           banks=list(range(16)))
    pum = ImpactPumChannel(System(SystemConfig.paper_default()))
    return pnm.transmit(MESSAGE), pum.transmit(MESSAGE)


def test_fig7_poc_per_bank_latencies(result_table):
    pnm_result, pum_result = run_poc()
    table = result_table(
        "fig7_poc",
        ["bank", "bit", "pnm_latency", "pnm_decoded", "pum_latency",
         "pum_decoded"],
        title=f"Fig. 7: receiver latency per bank, 16-bit message, "
              f"threshold {THRESHOLD} cycles")
    for bank in range(16):
        bit = MESSAGE[bank]
        table.add(bank, bit,
                  pnm_result.probe_latencies[bank], pnm_result.received[bank],
                  pum_result.probe_latencies[bank], pum_result.received[bank])
    table.emit()

    for result in (pnm_result, pum_result):
        assert result.received == MESSAGE  # complete message decoded
        zeros, ones = split_by_bit(result.probe_latencies, MESSAGE)
        assert max(zeros) < THRESHOLD < min(ones)

    # Print the latency-distribution summary the figure visualizes.
    for name, result in (("PnM", pnm_result), ("PuM", pum_result)):
        zeros, ones = split_by_bit(result.probe_latencies, MESSAGE)
        print(f"IMPACT-{name} hits:      {summarize_latencies(zeros).summary()}")
        print(f"IMPACT-{name} conflicts: {summarize_latencies(ones).summary()}")
