"""Golden Fig. 8 outputs, compared exactly, and checked against the paper.

The values were captured with ``REPRO_NO_WARMSTORE=1`` (fresh systems
throughout); the pristine-system pool is pure, so they hold with it on.
An intended numeric change updates them and records its before/after in
EXPERIMENTS.md; the paper's 8 MB claims (§5.3, with the benchmark's
tolerances) then check the update against the paper, not only against
itself.
"""

from repro.attacks import StreamlineChannel
from repro.config import SystemConfig
from repro.exp.figures import fig8_point
from repro.system import System

FIG8_POINT_8MB = {
    "DMA-engine": 5.328128125963135,
    "DRAMA-clflush": 3.017006926061573,
    "DRAMA-eviction": 0.5304464803728426,
    "IMPACT-PnM": 12.75364540420395,
    "IMPACT-PuM": 14.012189088765618,
    "PnM-OffChip": 12.664649084882548,
    "Streamline": 2.390781697493319,
    "Streamline-bound": 2.5870646766169156,
}

#: 64 MB-LLC Streamline, 192 random bits, seed 1:
#: (throughput Mb/s, bit errors, cycles).
STREAMLINE_64MB = (1.9972633651007035, 0, 249942)


def test_fig8_payloads_are_golden():
    assert fig8_point(8) == FIG8_POINT_8MB
    system = System(SystemConfig.paper_default().with_llc(64.0))
    result = StreamlineChannel(system).transmit_random(192, seed=1)
    assert (result.throughput_mbps, result.errors,
            result.cycles) == STREAMLINE_64MB


def test_golden_8mb_payload_meets_paper_claims():
    point = FIG8_POINT_8MB
    assert abs(point["PnM-OffChip"] - 12.64) / 12.64 < 0.08
    others = max(v for k, v in point.items() if not k.startswith("IMPACT"))
    assert point["IMPACT-PnM"] > others and point["IMPACT-PuM"] > others
    assert 1.9 < point["IMPACT-PnM"] / point["DMA-engine"] < 3.0
