"""Tests for the run report (:mod:`repro.analysis.runreport`) over a
parallel sweep: payloads joined with the metrics and traces that pool
workers wrote."""

import json
import os

from repro.analysis.runreport import (
    collect_run_report,
    render_markdown,
    write_run_report,
)
from repro.exp import run_sweep
from repro.exp.figures import fig8_quality_sweep


def test_report_joins_a_parallel_sweeps_artifacts(tmp_path):
    metrics_dir = str(tmp_path / "metrics")
    trace_dir = str(tmp_path / "traces")
    points = fig8_quality_sweep((8, 16), bits=32, attacks=["impact-pnm"])
    outcome = run_sweep(points, jobs=2, metrics_dir=metrics_dir,
                        trace_dir=trace_dir)
    report = collect_run_report("fig8", points, outcome,
                                metrics_dir=metrics_dir, trace_dir=trace_dir)

    assert report["parallel"] is True, outcome.fallback_reason
    assert [entry["label"] for entry in report["points"]] == \
        [point.describe() for point in points]
    for entry in report["points"]:
        assert entry["metrics"] and entry["trace_summary"]
        # A pool worker, not this process, measured the point.
        assert entry["metrics"]["pid"] != os.getpid()
        assert entry["trace_summary"]["provenance"]["pid"] == \
            entry["metrics"]["pid"]

    counters = report["totals"]["counters"]
    assert counters
    for name, total in counters.items():
        assert total == sum(entry["metrics"]["counters"].get(name, 0)
                            for entry in report["points"])

    markdown = render_markdown(report)
    sections = [line for line in markdown.splitlines()
                if line.startswith("## ")]
    assert sections == ([f"## {point.describe()}" for point in points]
                        + ["## Sweep totals"])

    md_path, json_path = write_run_report(report,
                                          out_dir=str(tmp_path / "reports"))
    with open(md_path, encoding="utf-8") as handle:
        assert handle.read() == markdown
    with open(json_path, encoding="utf-8") as handle:
        assert json.load(handle)["points"][1]["label"] == \
            points[1].describe()
