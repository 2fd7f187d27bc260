"""Golden Fig. 11 outputs, compared exactly, and checked against the paper.

These are the two points of the benchmark's ``fig11-defense`` workload
(BC and CC at ``max_refs=60_000``), each run cold through
``run_sweep([point], jobs=1, cache=None)`` as the benchmark runs them.
They are the cache-bound points: nearly all of their time is spent in
the cache hierarchy and the warm-up replay, so a change to either shows
here first.  An intended numeric change updates the values below and
records its before/after in EXPERIMENTS.md; the paper's Fig. 11 claims,
imported from the benchmark rather than copied, then check the update
against the paper, not only against itself.
"""

import json

import pytest

from perfbench.points import FIG11_CLAIMS, WORKLOADS
from repro.exp import run_sweep


def _policy(cycles, instructions, refs, llc_misses, mpki):
    return {"cycles": cycles, "instructions": instructions, "refs": refs,
            "llc_misses": llc_misses, "mpki": mpki}


_BC_RUN = _policy(1192012, 1730600, 101800, 0, 0.0)

#: Point label (``SweepPoint.describe()``) -> its JSON payload.
FIG11_GOLDEN = {
    "fig11[workload=BC]": {
        "workload": "BC",
        "paper_mpki": 0.57,
        "mpki": 0.0,
        "policies": {"open": _BC_RUN, "crp": _BC_RUN, "ctd": _BC_RUN},
        "crp_overhead": 0.0,
        "ctd_overhead": 0.0,
    },
    "fig11[workload=CC]": {
        "workload": "CC",
        "paper_mpki": 45.2,
        "mpki": 22.81111111111111,
        "policies": {
            "open": _policy(1761463, 360000, 120000, 8212,
                            22.81111111111111),
            "crp": _policy(1910390, 360000, 120000, 8230,
                           22.86111111111111),
            "ctd": _policy(2046748, 360000, 120000, 8200,
                           22.77777777777778),
        },
        "crp_overhead": 0.08454733366525446,
        "ctd_overhead": 0.16195912148026959,
    },
}

POINTS = WORKLOADS["fig11-defense"].build()


def _canonical(payload) -> str:
    # ``==`` treats 1 and 1.0 as equal; the canonical JSON does not.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_golden_covers_every_point():
    assert [point.describe() for point in POINTS] == list(FIG11_GOLDEN)


@pytest.mark.parametrize("point", POINTS, ids=lambda p: p.describe())
def test_fig11_payload_is_golden(point):
    payload = run_sweep([point], jobs=1, cache=None).results[0]
    golden = FIG11_GOLDEN[point.describe()]
    assert payload == golden
    assert _canonical(payload) == _canonical(golden)


@pytest.mark.parametrize("claim", FIG11_CLAIMS, ids=lambda c: c[0])
def test_golden_payloads_meet_paper_claims(claim):
    _name, check = claim
    assert check(FIG11_GOLDEN)
