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

BFS, TC and PR are pinned too, with BC and CC, on a down-scaled
hierarchy (4 KB L1s, 16 KB L2s, 64 KB LLC) at 1,600 references per
instance.  There each kernel misses often and moves with the row policy,
PR carries 2.3 prefetch candidates per reference, and PR's and BC's
warm-up and measured passes see different candidates at some references,
so the pins cover the prefetch path the two benchmark points leave quiet.
"""

import json
from dataclasses import replace

import pytest

from perfbench.points import FIG11_CLAIMS, WORKLOADS
from repro.exp import run_sweep
from repro.workloads import RunResult, evaluate_defenses, fig11_config


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

#: Workload -> (open, crp, ctd) runs as (cycles, instructions, refs,
#: llc_misses), then the open-row MPKI and the CRP and CTD overheads, on
#: the down-scaled hierarchy at ``SMALL_REFS`` references.
SMALL_GOLDEN = {
    "BC": ((54376, 54400, 3200, 0), (54312, 54400, 3200, 0),
           (54344, 54400, 3200, 0),
           0.0, -0.0011769898484625951, -0.0005884949242312976),
    "BFS": ((53629, 9600, 3200, 157), (54908, 9600, 3200, 149),
            (57844, 9600, 3200, 152),
            16.354166666666668, 0.02384903690167639, 0.07859553599731495),
    "CC": ((63304, 9600, 3200, 395), (59991, 9600, 3200, 395),
           (66383, 9600, 3200, 392),
           41.145833333333336, -0.05233476557563499, 0.048638316694047834),
    "TC": ((31688, 22400, 3200, 0), (31304, 22400, 3200, 0),
           (31208, 22400, 3200, 0),
           0.0, -0.012118151981822756, -0.015147689977278445),
    "PR": ((77205, 22400, 3200, 409), (87958, 22400, 3200, 400),
           (95196, 22400, 3200, 401),
           18.258928571428573, 0.13927854413574248, 0.23302894890227321),
}
SMALL_REFS = 1_600

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


def _small_config():
    config = fig11_config()
    return replace(config, hierarchy=replace(
        config.hierarchy, l1_size_kb=4, l2_size_kb=16, llc_size_mb=0.0625))


@pytest.mark.parametrize("workload", list(SMALL_GOLDEN))
def test_every_kernel_on_a_small_hierarchy_is_golden(workload):
    evaluation = evaluate_defenses(workload, base_config=_small_config(),
                                   max_refs=SMALL_REFS)
    *runs, mpki, crp_overhead, ctd_overhead = SMALL_GOLDEN[workload]
    assert evaluation.results == {
        policy: RunResult(*run)
        for policy, run in zip(("open", "crp", "ctd"), runs)}
    assert evaluation.measured_mpki == mpki
    assert evaluation.overhead("crp") == crp_overhead
    assert evaluation.overhead("ctd") == ctd_overhead
