"""Tests for the run report (:mod:`repro.analysis.runreport`) over a
parallel sweep: payloads joined with the traces that pool workers
wrote."""

import json
import os

from repro.analysis.runreport import (
    code_version,
    collect_run_report,
    render_markdown,
    write_run_report,
)
from repro.exp import run_sweep
from repro.exp.figures import fig8_quality_sweep


def test_report_joins_a_parallel_sweeps_artifacts(tmp_path):
    trace_dir = str(tmp_path / "traces")
    points = fig8_quality_sweep((8, 16), bits=32, attacks=["impact-pnm"])
    outcome = run_sweep(points, jobs=2, trace_dir=trace_dir)
    report = collect_run_report("fig8", points, outcome, trace_dir)

    assert report["parallel"] is True, outcome.fallback_reason
    assert report["code_version"] == code_version()
    assert [entry["label"] for entry in report["points"]] == \
        [point.describe() for point in points]
    summaries = [entry["trace_summary"] for entry in report["points"]]
    for summary in summaries:
        assert summary["counts"]["RD"] > 0
        # A pool worker, not this process, traced and timed the point.
        assert summary["provenance"]["pid"] != os.getpid()
        assert summary["provenance"]["wall_s"] > 0

    totals = report["totals"]
    assert totals["points"] == len(points)
    for name, total in totals["counts"].items():
        assert total == sum(summary["counts"].get(name, 0)
                            for summary in summaries)
    for requestor, row in totals["per_requestor"].items():
        for key, total in row.items():
            assert total == sum(
                summary["per_requestor"].get(requestor, {}).get(key, 0)
                for summary in summaries)
    assert totals["wall_s"] == round(sum(
        summary["provenance"]["wall_s"] for summary in summaries), 6)

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


def test_code_version_is_a_source_hash():
    """The provenance stamp is a stable 16-hex-digit prefix of the hash
    over the package's sources."""
    version = code_version()
    assert len(version) == 16
    int(version, 16)  # hex digest prefix
    assert code_version() == version
