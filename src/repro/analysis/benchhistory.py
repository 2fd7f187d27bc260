"""Benchmark trajectory across the committed ``BENCH_PR*.json`` files.

Every PR that touched performance committed a snapshot (see
``scripts/bench_snapshot.py``); ``scripts/bench_gate.py`` compares fresh
numbers against the newest one, but its verdict is binary.  This module
turns the whole committed sequence into a per-metric trend table —
``repro bench history`` for humans, :func:`format_trajectory` for the
gate's failure diagnostics — so "simulator ops/s dropped 18%" comes with
the context of where the metric has been since PR 1.

Snapshots have grown sections over time (telemetry overhead, the
adaptive sweep engine); missing sections render as gaps, not errors.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Tracked metrics: (name, dotted path into the snapshot JSON, direction)
#: — direction says which way is better, so deltas can be judged.
BENCH_METRICS: List[Tuple[str, str, str]] = [
    ("simulator.ops_per_sec", "simulator.ops_per_sec", "higher"),
    ("scheduler.checkpoints_per_sec",
     "scheduler.fast_path.checkpoints_per_sec", "higher"),
    ("suite_seconds", "suite_seconds", "lower"),
    ("telemetry.warm_overhead_pct",
     "telemetry_overhead.overhead_pct", "lower"),
    ("sweep.adaptive_rep_savings",
     "sweep_engine.adaptive.rep_savings_ratio", "higher"),
]

_BENCH_RE = re.compile(r"BENCH_PR(\d+)\.json$")


def load_bench_records(root: str) -> List[Tuple[int, str, Dict[str, Any]]]:
    """The committed snapshots under ``root`` as ``(pr_number, path,
    data)``, sorted by PR number; unreadable files are skipped."""
    records: List[Tuple[int, str, Dict[str, Any]]] = []
    try:
        names = os.listdir(root)
    except OSError:
        return records
    for name in names:
        match = _BENCH_RE.match(name)
        if not match:
            continue
        path = os.path.join(root, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(data, dict):
            records.append((int(match.group(1)), path, data))
    records.sort(key=lambda record: record[0])
    return records


def dig(data: Dict[str, Any], dotted: str) -> Optional[float]:
    """Numeric value at a dotted path, or ``None`` when absent."""
    node: Any = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def collect_history(root: str,
                    fresh: Optional[Dict[str, float]] = None,
                    ) -> Dict[str, Any]:
    """Per-metric trajectory over every committed snapshot.

    ``fresh`` optionally appends a just-measured column (metric name ->
    value) labelled ``fresh``, so a live run can be placed against the
    committed history.  Returns ``{"columns": [...], "metrics": [...]}``
    where each metric row carries its series, latest/previous values,
    and the percent delta between them (sign-adjusted so negative is
    always "got worse")."""
    records = load_bench_records(root)
    columns = [f"PR{pr}" for pr, _path, _data in records]
    if fresh:
        columns.append("fresh")
    metrics: List[Dict[str, Any]] = []
    for name, path, direction in BENCH_METRICS:
        series: List[Optional[float]] = [dig(data, path)
                                         for _pr, _path, data in records]
        if fresh:
            series.append(fresh.get(name))
        present = [value for value in series if value is not None]
        if not present:
            continue
        latest = present[-1]
        previous = present[-2] if len(present) > 1 else None
        delta_pct: Optional[float] = None
        if previous:
            delta_pct = (latest - previous) / previous * 100.0
            if direction == "lower":
                delta_pct = -delta_pct
        metrics.append({
            "name": name, "direction": direction, "series": series,
            "latest": latest, "previous": previous,
            "delta_pct": delta_pct,
        })
    return {"columns": columns, "metrics": metrics}


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if abs(value) >= 10_000:
        return f"{value:,.0f}"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.2f}"


def _format_delta(metric: Dict[str, Any]) -> str:
    delta = metric["delta_pct"]
    if delta is None:
        return "-"
    arrow = "+" if delta >= 0 else ""
    return f"{arrow}{delta:.1f}%"


def history_rows(history: Dict[str, Any],
                 ) -> Tuple[List[str], List[List[str]]]:
    """``(headers, rows)`` for table rendering: one row per metric, one
    column per snapshot, a trailing sign-adjusted delta column (positive
    = improved, negative = regressed, whatever the metric's direction)."""
    headers = ["metric"] + list(history["columns"]) + ["last Δ"]
    rows: List[List[str]] = []
    for metric in history["metrics"]:
        rows.append([metric["name"]]
                    + [_format_value(value) for value in metric["series"]]
                    + [_format_delta(metric)])
    return headers, rows


def render_history(history: Dict[str, Any],
                   title: str = "benchmark history") -> str:
    """ASCII trend table (``repro bench history``)."""
    from repro.analysis.report import format_table

    headers, rows = history_rows(history)
    if not rows:
        return "no BENCH_PR*.json snapshots found"
    return format_table(headers, rows, title=title)


def render_history_markdown(history: Dict[str, Any]) -> str:
    """The same table as GitHub-flavoured markdown (the CI artifact)."""
    headers, rows = history_rows(history)
    if not rows:
        return "no BENCH_PR*.json snapshots found\n"
    lines = ["# Benchmark history", "",
             "| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    lines.append("")
    lines.append("`last Δ` is sign-adjusted: positive = improved, "
                 "negative = regressed, regardless of metric direction.")
    return "\n".join(lines) + "\n"


def format_trajectory(root: str, metric_name: str,
                      fresh: Optional[float] = None) -> str:
    """One metric's committed trajectory as a single diagnostic line,
    e.g. ``simulator.ops_per_sec: PR2 43,812 -> ... -> PR7 50,843
    (fresh 41,020)`` — what ``bench_gate.py`` prints on failure."""
    for name, path, _direction in BENCH_METRICS:
        if name == metric_name:
            break
    else:
        return f"{metric_name}: not a tracked metric"
    steps = [f"PR{pr} {_format_value(dig(data, path))}"
             for pr, _path, data in load_bench_records(root)
             if dig(data, path) is not None]
    if not steps:
        return f"{metric_name}: no committed history"
    line = f"{metric_name}: " + " -> ".join(steps)
    if fresh is not None:
        line += f" (fresh {_format_value(fresh)})"
    return line
