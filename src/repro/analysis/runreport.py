"""Run reports: one markdown + JSON document per sweep.

``repro report <experiment>`` runs a sweep with every point traced, then
calls :func:`collect_run_report` to join, point by point:

- the sweep **payloads** (the figure numbers themselves),
- the **trace summary** of the point's Chrome-trace file
  (:func:`repro.obs.summarize_chrome_trace`): event counts, each
  requestor's row-buffer outcomes and busy/queue cycles, and the point's
  wall time and worker pid.

The joined report is written to ``reports/<experiment>.json`` (machine
consumers) and ``reports/<experiment>.md`` (humans), the markdown built
from :func:`repro.analysis.report.format_markdown_table`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.report import format_markdown_table

#: Quality columns rendered for payloads shaped like ``fig8_quality_point``
#: output (``{"attacks": {name: {metric: value}}}``).
_QUALITY_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("throughput_mbps", "Mb/s"),
    ("ber", "BER"),
    ("ber_ci95", "BER 95% CI"),
    ("mutual_information_bits", "MI (bits)"),
    ("capacity_mbps", "Capacity Mb/s"),
    ("leakage_t", "Leakage t"),
    ("leaks", "Leaks"),
    ("eye_gap", "Eye gap"),
)

#: Per-requestor columns of a trace summary; each adds up across points.
_REQUESTOR_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("events", "Events"),
    ("operations", "Ops"),
    ("busy_cycles", "Busy cyc"),
    ("queue_cycles", "Queue cyc"),
    ("hits", "Hits"),
    ("empties", "Empties"),
    ("conflicts", "Conflicts"),
)


def _fmt(value: Any) -> str:
    """Human-friendly cell formatting (floats shortened, lists joined)."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def code_version() -> str:
    """Content hash of the ``repro`` package sources, which a run report
    records as its provenance: any change to any ``.py`` file under the
    package gives a different version."""
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(package_dir)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, package_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def collect_run_report(experiment: str, points: Sequence[Any],
                       outcome: Any, trace_dir: str) -> Dict[str, Any]:
    """Join sweep payloads with the per-point trace summaries.

    ``points`` and ``outcome`` are the exact arguments/return of the
    :func:`repro.exp.run_sweep` call that traced into ``trace_dir``;
    :func:`repro.exp.trace_path` names each point's file.  ``totals``
    sums the summaries' event counts, per-requestor rows and wall times.
    """
    from repro.exp import point_slug, trace_path
    from repro.obs import summarize_chrome_trace

    entries: List[Dict[str, Any]] = []
    for point, payload in zip(points, outcome.results):
        entries.append({
            "label": point.describe(),
            "slug": point_slug(point),
            "params": dict(point.params),
            "payload": payload,
            "trace_summary": summarize_chrome_trace(
                trace_path(trace_dir, point)),
        })

    return {
        "experiment": experiment,
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "code_version": code_version(),
        "jobs": outcome.jobs,
        "parallel": outcome.parallel,
        "elapsed_seconds": round(outcome.elapsed_seconds, 3),
        "points": entries,
        "totals": _totals([entry["trace_summary"] for entry in entries]),
    }


def _totals(summaries: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The sweep-wide sums of several trace summaries."""
    counts: Dict[str, int] = {}
    per_requestor: Dict[str, Dict[str, int]] = {}
    wall_s = 0.0
    for summary in summaries:
        for name, count in summary["counts"].items():
            counts[name] = counts.get(name, 0) + count
        for requestor, stats in summary["per_requestor"].items():
            row = per_requestor.setdefault(
                requestor, {key: 0 for key, _ in _REQUESTOR_COLUMNS})
            for key in row:
                row[key] += stats[key]
        wall_s += summary.get("provenance", {}).get("wall_s", 0.0)
    return {
        "points": len(summaries),
        "events": sum(counts.values()),
        "wall_s": round(wall_s, 6),
        "counts": counts,
        "per_requestor": per_requestor,
    }


def _quality_section(payload: Dict[str, Any]) -> List[str]:
    """Markdown for a ``{"attacks": {...}}`` quality payload."""
    rows = []
    for attack, metrics in payload["attacks"].items():
        rows.append([attack] + [_fmt(metrics.get(key))
                                for key, _ in _QUALITY_COLUMNS])
    headers = ["Attack"] + [title for _, title in _QUALITY_COLUMNS]
    return [format_markdown_table(headers, rows), ""]


def _scalar_section(payload: Dict[str, Any]) -> List[str]:
    """Markdown key/value table for a flat payload."""
    rows = [[key, _fmt(value)] for key, value in payload.items()
            if not isinstance(value, dict)]
    if not rows:
        return []
    return [format_markdown_table(["Field", "Value"], rows), ""]


def _trace_tables(summary: Dict[str, Any]) -> List[str]:
    """The event-count and per-requestor tables of a trace summary or of
    the totals."""
    counts = summary["counts"]
    lines = [format_markdown_table(
        ["Event", "Count"], [[name, counts[name]] for name in sorted(counts)]),
        ""]
    if summary["per_requestor"]:
        rows = [[name] + [_fmt(stats[key]) for key, _ in _REQUESTOR_COLUMNS]
                for name, stats in sorted(summary["per_requestor"].items())]
        lines += [format_markdown_table(
            ["Requestor"] + [title for _, title in _REQUESTOR_COLUMNS],
            rows), ""]
    return lines


def render_markdown(report: Dict[str, Any]) -> str:
    """The human-readable face of :func:`collect_run_report`'s output."""
    lines: List[str] = [
        f"# Run report: {report['experiment']}",
        "",
        f"- generated: {report['generated']}",
        f"- code version: `{report['code_version']}`",
        f"- jobs: {report['jobs']} "
        f"({'parallel' if report['parallel'] else 'serial'})",
        f"- elapsed: {report['elapsed_seconds']} s",
        "",
    ]
    for entry in report["points"]:
        lines += [f"## {entry['label']}", ""]
        payload = entry.get("payload")
        if isinstance(payload, dict):
            if isinstance(payload.get("attacks"), dict):
                lines += _quality_section(payload)
            else:
                lines += _scalar_section(payload)
        summary = entry.get("trace_summary")
        if summary:
            provenance = summary.get("provenance", {})
            lines += [f"**Trace summary** — {summary['events']} events, "
                      f"wall {_fmt(provenance.get('wall_s'))} s, pid "
                      f"{_fmt(provenance.get('pid'))}", ""]
            lines += _trace_tables(summary)
    totals = report["totals"]
    if totals["points"]:
        lines += ["## Sweep totals", "",
                  f"{totals['events']} events over {totals['points']} "
                  f"traced points, wall {_fmt(totals['wall_s'])} s "
                  f"summed over the points", ""]
        lines += _trace_tables(totals)
    return "\n".join(lines).rstrip() + "\n"


def write_run_report(report: Dict[str, Any],
                     out_dir: str = "reports") -> Tuple[str, str]:
    """Write ``<experiment>.md`` + ``<experiment>.json`` under ``out_dir``;
    returns ``(markdown_path, json_path)``."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report["experiment"])
    json_path = base + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    md_path = base + ".md"
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(render_markdown(report))
    return md_path, json_path
