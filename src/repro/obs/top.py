"""``repro top``: a live text view of a sweep's workers.

Tails a telemetry directory written by ``run_sweep(telemetry_dir=...)``
and reconstructs, from the causal event log alone, how many points are
done, per-worker throughput, and the slowest points still in flight.

Pure functions over JSON-able dicts: the CLI loop in :mod:`repro.cli`
owns the polling/clearing; everything here renders one frame as a
string, which keeps it trivially testable.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs import telemetry


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]],
           title: str) -> str:
    from repro.analysis import format_table

    if not rows:
        return f"{title}: (none)"
    return format_table(headers, rows, title=title)


def _render_workers(state: Dict[str, Any]) -> str:
    rows = []
    for pid, worker in sorted(state["workers"].items()):
        rows.append((
            pid, worker["points"], _fmt(worker["points_per_sec"]),
            _fmt(worker["busy_seconds"]), _fmt(worker["in_flight_age_s"]),
            worker["in_flight"] or "idle"))
    return _table(
        ["worker pid", "points", "pts/s", "busy s", "age s", "in flight"],
        rows, title="workers")


def _render_in_flight(state: Dict[str, Any], limit: int = 8) -> str:
    rows = [(entry["point_slug"] or entry["span_id"], entry["worker_pid"],
             _fmt(entry["age_s"]))
            for entry in state["in_flight"][:limit]]
    return _table(["in-flight point", "worker", "age s"], rows,
                  title="slowest in flight")


def fleet_state(events: Iterable[Dict[str, Any]],
                now: Optional[float] = None) -> Dict[str, Any]:
    """Reconstruct the worker view from raw telemetry events.

    ``now`` anchors in-flight ages (default: the newest event's
    timestamp, so a finished log renders with zero phantom ages)."""
    events = list(events)
    latest = max((e.get("ts", 0.0) for e in events), default=0.0)
    now = latest if now is None else now
    runs = {e["run_id"] for e in events if e.get("run_id")}
    spans: Dict[str, Dict[str, Any]] = {}
    workers: Dict[int, Dict[str, Any]] = {}
    for event in events:
        name = event.get("event")
        span_id = event.get("span_id")
        if not span_id:
            continue
        span = spans.setdefault(span_id, {
            "span_id": span_id, "point_slug": None,
            "queued_ts": None, "dispatched_ts": None, "worker_pid": None,
            "elapsed_s": None, "terminal": None})
        if event.get("point_slug"):
            span["point_slug"] = event["point_slug"]
        if name == "point_queued":
            span["queued_ts"] = event.get("ts")
        elif name == "point_dispatched":
            span["dispatched_ts"] = event.get("ts")
            span["worker_pid"] = event.get("worker_pid")
        elif name == "point_end":
            span["elapsed_s"] = event.get("elapsed_s")
        elif name in telemetry.TERMINAL_EVENTS:
            span["terminal"] = name
            pid = span["worker_pid"]
            if pid is not None:
                worker = workers.setdefault(
                    pid, {"points": 0, "busy_seconds": 0.0})
                worker["points"] += 1
                worker["busy_seconds"] += span["elapsed_s"] or 0.0
    in_flight = sorted(
        ({"span_id": span["span_id"], "point_slug": span["point_slug"],
          "worker_pid": span["worker_pid"],
          "age_s": round(now - (span["dispatched_ts"]
                                or span["queued_ts"] or now), 6)}
         for span in spans.values()
         if span["terminal"] is None and (span["dispatched_ts"]
                                          or span["queued_ts"])),
        key=lambda entry: -entry["age_s"])
    worker_rows = {
        str(pid): {
            "points": worker["points"],
            "busy_seconds": round(worker["busy_seconds"], 6),
            "points_per_sec": (round(worker["points"]
                                     / worker["busy_seconds"], 3)
                               if worker["busy_seconds"] > 0 else None),
            "in_flight": next((f["point_slug"] for f in in_flight
                               if f["worker_pid"] == pid), None),
            "in_flight_age_s": next((f["age_s"] for f in in_flight
                                     if f["worker_pid"] == pid), None),
        }
        for pid, worker in workers.items()}
    done_spans = sum(1 for span in spans.values()
                     if span["terminal"] is not None)
    return {
        "runs": len(runs),
        "spans": len(spans),
        "done_spans": done_spans,
        "workers": worker_rows,
        "in_flight": in_flight,
    }


def render_state_frame(state: Dict[str, Any], source: str = "dir") -> str:
    """One ``repro top`` frame from :func:`fleet_state` output."""
    lines: List[str] = [f"repro top — {source} — "
                        + time.strftime("%H:%M:%S")]
    lines.append(
        f"runs {state['runs']}  points {state['done_spans']}/"
        f"{state['spans']} done  in flight {len(state['in_flight'])}")
    lines.append("")
    lines.append(_render_workers(state))
    lines.append("")
    lines.append(_render_in_flight(state))
    return "\n".join(lines)


def frame_from_dir(directory: str, source: Optional[str] = None) -> str:
    """Read a telemetry directory and render one frame."""
    events = telemetry.read_events(directory)
    return render_state_frame(fleet_state(events),
                              source=source or directory)
