"""Golden Fig. 8 outputs, compared exactly, and checked against the paper.

These are the two points of the benchmark's ``fig8-covert`` workload
(8 and 64 MB LLC), each run cold through ``run_sweep([point], jobs=1,
cache=None)`` as the benchmark runs them, plus one 64 MB Streamline
transmission.  An intended numeric change updates the values below and
records its before/after in EXPERIMENTS.md; the paper's Fig. 8 claims,
imported from the benchmark rather than copied, then check the update
against the paper, not only against itself.
"""

import json

import pytest

from perfbench.points import FIG8_CLAIMS, WORKLOADS
from repro.attacks import StreamlineChannel
from repro.config import SystemConfig
from repro.exp import run_sweep
from repro.system import System

#: Point label (``SweepPoint.describe()``) -> its JSON payload.
FIG8_GOLDEN = {
    "fig8[llc_mb=8]": {
        "DMA-engine": 5.328128125963135,
        "DRAMA-clflush": 3.017006926061573,
        "DRAMA-eviction": 0.5304464803728426,
        "IMPACT-PnM": 12.75364540420395,
        "IMPACT-PuM": 14.012189088765618,
        "PnM-OffChip": 12.664649084882548,
        "Streamline": 2.390781697493319,
        "Streamline-bound": 2.5870646766169156,
    },
    "fig8[llc_mb=64]": {
        "DMA-engine": 5.328128125963135,
        "DRAMA-clflush": 2.5584518086491252,
        "DRAMA-eviction": 0.2894436558960229,
        "IMPACT-PnM": 12.75364540420395,
        "IMPACT-PuM": 14.012189088765618,
        "PnM-OffChip": 10.230194875608017,
        "Streamline": 1.9972633651007035,
        "Streamline-bound": 2.1612635078969245,
    },
}

#: 64 MB-LLC Streamline, 192 random bits, seed 1:
#: (throughput Mb/s, bit errors, cycles).
STREAMLINE_64MB = (1.9972633651007035, 0, 249942)

POINTS = WORKLOADS["fig8-covert"].build()


def _canonical(payload) -> str:
    # ``==`` treats 1 and 1.0 as equal; the canonical JSON does not.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_fig8_payloads_are_golden():
    assert [point.describe() for point in POINTS] == list(FIG8_GOLDEN)
    for point in POINTS:
        payload = run_sweep([point], jobs=1, cache=None).results[0]
        golden = FIG8_GOLDEN[point.describe()]
        assert payload == golden, point.describe()
        assert _canonical(payload) == _canonical(golden), point.describe()
    system = System(SystemConfig.paper_default().with_llc(64.0))
    result = StreamlineChannel(system).transmit_random(192, seed=1)
    assert (result.throughput_mbps, result.errors,
            result.cycles) == STREAMLINE_64MB


@pytest.mark.parametrize("claim", FIG8_CLAIMS, ids=lambda c: c[0])
def test_golden_payloads_meet_paper_claims(claim):
    _name, check = claim
    assert check(FIG8_GOLDEN)
