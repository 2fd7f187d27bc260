"""The parent-vs-head benchmark script's decision rule
(``scripts/perfbench_ab.py``), on synthetic run records."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ab", os.path.join(ROOT, "scripts", "perfbench_ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def record(wall=2.0, correct=True, failed=0, digest="94149d5b"):
    """One ``perfbench/run.py --trace 0`` result as the script reads it."""
    values = {"wall_s": wall, "setup_s": 0.18, "peak_rss_mb": 63.0,
              "paper_err_pct": 1.4}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "digests": [f"sha256:{digest}"],
            "metrics": {name: {"value": value}
                        for name, value in values.items()}}


def runs(base, head):
    return {"fig8-covert": {"base": [base, base], "head": [head, head]}}


def test_equal_runs_pass(ab, bench):
    lines, failures = ab.compare(bench, runs(record(), record()))
    assert failures == []
    assert any("wall_s" in line and "-> ok" in line for line in lines)


def test_slower_head_fails_naming_workload_and_metric(ab, bench):
    _, failures = ab.compare(bench, runs(record(wall=2.0),
                                         record(wall=2.6)))
    assert len(failures) == 1
    assert failures[0].startswith("fig8-covert wall_s")


def test_much_faster_head_passes(ab, bench):
    """The bound is one-sided: a symmetric check would fail this."""
    _, failures = ab.compare(bench, runs(record(wall=2.0),
                                         record(wall=0.5)))
    assert failures == []


def test_incorrect_head_run_fails(ab, bench):
    head = runs(record(), record())
    head["fig8-covert"]["head"][1] = record(correct=False)
    _, failures = ab.compare(bench, head)
    assert any("head run is incorrect" in f for f in failures)


def test_larger_failed_share_fails(ab, bench):
    _, failures = ab.compare(bench, runs(record(correct=False, failed=1),
                                         record(correct=False, failed=5)))
    assert any("larger share of operations" in f for f in failures)


def test_crashed_head_run_fails_without_metrics(ab, bench):
    crashed = {"correct": False, "attempted": 0, "failed": 0,
               "metrics": None, "digests": [], "error": "exit 1"}
    lines, failures = ab.compare(bench, runs(record(), crashed))
    assert failures == ["fig8-covert: a head run is incorrect (exit 1)"]
    assert "  metrics not compared: a run crashed" in lines


def test_different_digests_are_reported_and_pass(ab, bench):
    lines, failures = ab.compare(bench, runs(record(digest="aaaa"),
                                             record(digest="bbbb")))
    assert failures == []
    assert "  digests base: sha256:aaaa" in lines
    assert "  digests head: sha256:bbbb" in lines
    assert any(line.startswith("  digests differ") for line in lines)
