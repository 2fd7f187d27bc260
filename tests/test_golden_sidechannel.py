"""Golden Figs. 2, 3 and 10, Table 1 and §3.1 outputs, compared exactly.

These are the 19 points of the benchmark's ``fig2-3-10-sidechannel``
workload, each run cold through ``run_sweep([point], jobs=1,
cache=None)`` as the benchmark runs them.  An intended numeric change
updates the values below and records its before/after in EXPERIMENTS.md;
the paper's claims for these points, imported from the benchmark rather
than copied, then check the update against the paper, not only against
itself.
"""

import json

import pytest

from perfbench.points import SIDECHANNEL_CLAIMS, WORKLOADS
from repro.exp import run_sweep

#: Point label (``SweepPoint.describe()``) -> its JSON payload.
SIDECHANNEL_GOLDEN = {
    "fig2[llc_mb=2]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 1.9180266456626356,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.87468778990937,
        "eviction_latency_cycles": 2335.429347826087,
    },
    "fig2[llc_mb=4]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 1.8838126829047397,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.87468778990937,
        "eviction_latency_cycles": 2383.8097826086955,
    },
    "fig2[llc_mb=8]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 1.8509180434847092,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.87468778990937,
        "eviction_latency_cycles": 2432.0,
    },
    "fig2[llc_mb=16]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 1.7987633501967397,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.87468778990937,
        "eviction_latency_cycles": 2512.0,
    },
    "fig2[llc_mb=32]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 1.7304972406334065,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.87468778990937,
        "eviction_latency_cycles": 2624.0,
    },
    "fig2[llc_mb=64]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 1.6415004998158573,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.87468778990937,
        "eviction_latency_cycles": 2784.0,
    },
    "fig3[ways=2]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 6.8131103240731266,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.933234128762752,
        "eviction_latency_cycles": 304.0,
    },
    "fig3[ways=4]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 4.9273409681455105,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.933234128762752,
        "eviction_latency_cycles": 612.0,
    },
    "fig3[ways=8]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 3.1498298732212406,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.933234128762752,
        "eviction_latency_cycles": 1240.0,
    },
    "fig3[ways=16]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 1.8212314654948327,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.933234128762752,
        "eviction_latency_cycles": 2512.0,
    },
    "fig3[ways=32]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 0.9825732021464264,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.933234128762752,
        "eviction_latency_cycles": 5088.0,
    },
    "fig3[ways=64]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 0.5085776635379767,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.933234128762752,
        "eviction_latency_cycles": 10303.710743801654,
    },
    "fig3[ways=128]": {
        "baseline_error_rate": 0.0,
        "baseline_mbps": 0.25888044320829723,
        "direct_error_rate": 0.0,
        "direct_mbps": 11.933234128762752,
        "eviction_latency_cycles": 20735.132231404958,
    },
    "fig10[num_banks=1024]": {
        "accuracy": 0.970873786407767,
        "correct": 100,
        "cpu_hz": 2600000000.0,
        "cycles": 359105,
        "entries_per_bank": 3.556640625,
        "error_rate": 0.02912621359223301,
        "false_positives": 3,
        "leaked_bits": 1000.0,
        "missed": 0,
        "num_banks": 1024,
        "rounds": 100,
        "summary": ("side-channel @1024 banks: 7.24 Mb/s, error 2.91%, 3.6 "
                    "candidate entries/bank"),
        "throughput_mbps": 7.2402222191281105,
    },
    "fig10[num_banks=2048]": {
        "accuracy": 0.9523809523809523,
        "correct": 100,
        "cpu_hz": 2600000000.0,
        "cycles": 507502,
        "entries_per_bank": 1.7783203125,
        "error_rate": 0.047619047619047616,
        "false_positives": 5,
        "leaked_bits": 1100.0,
        "missed": 0,
        "num_banks": 2048,
        "rounds": 100,
        "summary": ("side-channel @2048 banks: 5.64 Mb/s, error 4.76%, 1.8 "
                    "candidate entries/bank"),
        "throughput_mbps": 5.635445771642279,
    },
    "fig10[num_banks=4096]": {
        "accuracy": 0.9090909090909091,
        "correct": 100,
        "cpu_hz": 2600000000.0,
        "cycles": 804300,
        "entries_per_bank": 0.88916015625,
        "error_rate": 0.09090909090909091,
        "false_positives": 10,
        "leaked_bits": 1200.0,
        "missed": 0,
        "num_banks": 4096,
        "rounds": 100,
        "summary": ("side-channel @4096 banks: 3.88 Mb/s, error 9.09%, 0.9 "
                    "candidate entries/bank"),
        "throughput_mbps": 3.879149571055576,
    },
    "fig10[num_banks=8192]": {
        "accuracy": 0.8620689655172413,
        "correct": 100,
        "cpu_hz": 2600000000.0,
        "cycles": 1398200,
        "entries_per_bank": 0.444580078125,
        "error_rate": 0.13793103448275862,
        "false_positives": 16,
        "leaked_bits": 1300.0,
        "missed": 0,
        "num_banks": 8192,
        "rounds": 100,
        "summary": ("side-channel @8192 banks: 2.42 Mb/s, error 13.79%, 0.4 "
                    "candidate entries/bank"),
        "throughput_mbps": 2.4173937920183093,
    },
    "table1": {
        "dma": 412,
        "eviction-sets": 2584,
        "non-temporal-hints": 117,
        "pim-operations": 129,
        "specialized-instructions": 109,
    },
    "sec31": {
        "conflict": 129,
        "hit": 59,
    },
}


POINTS = WORKLOADS["fig2-3-10-sidechannel"].build()


def _canonical(payload) -> str:
    # ``==`` treats 1 and 1.0 as equal; the canonical JSON does not.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_golden_covers_every_point():
    assert [point.describe() for point in POINTS] == list(SIDECHANNEL_GOLDEN)


@pytest.mark.parametrize("point", POINTS, ids=lambda p: p.describe())
def test_sidechannel_payload_is_golden(point):
    payload = run_sweep([point], jobs=1, cache=None).results[0]
    golden = SIDECHANNEL_GOLDEN[point.describe()]
    assert payload == golden
    assert _canonical(payload) == _canonical(golden)


@pytest.mark.parametrize("claim", SIDECHANNEL_CLAIMS, ids=lambda c: c[0])
def test_golden_payloads_meet_paper_claims(claim):
    _name, check = claim
    assert check(SIDECHANNEL_GOLDEN)
