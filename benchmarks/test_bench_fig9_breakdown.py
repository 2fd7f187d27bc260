"""Fig. 9: sender-send vs receiver-read cycle breakdown (16-bit message).

Paper: the IMPACT-PuM sender transmits the whole message with one parallel
RowClone, ~14x faster than IMPACT-PnM's 16 sequential PEIs; receivers take
similar time, and PnM hides its slow sender behind semaphore pipelining,
ending up only ~10% behind PuM in throughput.
"""

from repro import System, SystemConfig
from repro.attacks import ImpactPnmChannel, ImpactPumChannel


def run_breakdowns():
    pnm = ImpactPnmChannel(System(SystemConfig.paper_default()),
                           banks=list(range(16)))
    pum = ImpactPumChannel(System(SystemConfig.paper_default()))
    return (pnm.sender_receiver_breakdown(bits=16, seed=3),
            pum.sender_receiver_breakdown(bits=16, seed=3))


def test_fig9_sender_receiver_breakdown(result_table):
    pnm, pum = run_breakdowns()
    table = result_table(
        "fig9_breakdown",
        ["attack", "send_cycles", "read_cycles"],
        title="Fig. 9: cycles to send/read a 16-bit message")
    table.add("IMPACT-PnM", pnm["send_cycles"], pnm["read_cycles"])
    table.add("IMPACT-PuM", pum["send_cycles"], pum["read_cycles"])
    table.emit()

    speedup = pnm["send_cycles"] / pum["send_cycles"]
    print(f"PuM sender speedup over PnM sender: {speedup:.1f}x (paper ~14x)")
    assert 10 <= speedup <= 20
    # Receivers probe bank by bank in both attacks: similar read times.
    assert 0.5 < pnm["read_cycles"] / pum["read_cycles"] < 2.0
