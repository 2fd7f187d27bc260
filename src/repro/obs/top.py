"""``repro top``: a live text view of the execution fleet.

Two data sources, one frame format:

- **Daemon mode** — poll a running ``repro serve`` daemon's metrics
  endpoint (:meth:`repro.serve.ServeClient.metrics`) and render its
  scheduler stats + :class:`repro.obs.telemetry.FleetHealth` snapshot:
  per-client queue depth, dedup ratio, worker utilization and
  throughput, and the slowest in-flight points.
- **Offline mode** — tail a telemetry directory written by
  ``run_sweep(telemetry_dir=...)`` (or a daemon started with one) and
  reconstruct the same view from the causal event log alone, so a sweep
  with no daemon still has a fleet dashboard.

Pure functions over JSON-able dicts: the CLI loop in :mod:`repro.cli`
owns the polling/clearing; everything here renders one frame as a
string, which keeps it trivially testable.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import telemetry

#: Event names that close a span (mirrors telemetry.TERMINAL_EVENTS).
_TERMINAL = telemetry.TERMINAL_EVENTS


def _fmt(value: Optional[float], digits: int = 2,
         suffix: str = "") -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}{suffix}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]],
           title: Optional[str] = None) -> str:
    from repro.analysis import format_table

    if not rows:
        return f"{title}: (none)" if title else "(none)"
    return format_table(headers, rows, title=title)


def dedup_ratio(counters: Dict[str, Any]) -> Optional[float]:
    """Share of submitted points answered by in-flight dedup:
    ``deduped / (queued + deduped + cache_hits)``."""
    deduped = counters.get("serve.points.deduped", 0)
    submitted = (counters.get("serve.points.queued", 0) + deduped
                 + counters.get("serve.points.cache_hits", 0))
    if not submitted:
        return None
    return deduped / submitted


# ---------------------------------------------------------------------------
# Daemon mode: frame from a metrics-endpoint payload
# ---------------------------------------------------------------------------

def render_metrics_frame(payload: Dict[str, Any],
                         source: str = "daemon") -> str:
    """One ``repro top`` frame from a daemon's metrics payload (the
    ``{"op": "metrics"}`` response: registry + scheduler stats)."""
    stats = payload.get("stats") or {}
    counters = stats.get("counters") or payload.get("counters") or {}
    health = stats.get("workers") or {}
    lines: List[str] = [f"repro top — {source} — "
                        + time.strftime("%H:%M:%S")]
    ratio = dedup_ratio(counters)
    busy = sum(1 for worker in (health.get("workers") or {}).values()
               if worker.get("in_flight"))
    pool = stats.get("pool_workers") or 0
    util = busy / pool if pool else None
    lines.append(
        f"queued {stats.get('queued_points', 0)}  "
        f"running {stats.get('running_points', 0)}/"
        f"{stats.get('max_jobs', '?')}  "
        f"jobs {stats.get('jobs_done', 0)}/{stats.get('jobs_total', 0)} "
        f"done  pool {pool} workers"
        + (f" ({util:.0%} busy)" if util is not None else "")
        + (f"  dedup {ratio:.1%}" if ratio is not None else ""))
    lines.append("")
    lines.append(_render_clients(stats))
    lines.append("")
    lines.append(_render_workers(health))
    lines.append("")
    lines.append(_render_in_flight(health))
    return "\n".join(lines)


def _render_clients(stats: Dict[str, Any]) -> str:
    running = stats.get("clients_running") or {}
    queued = stats.get("clients_queued") or {}
    clients = sorted(set(running) | set(queued))
    rows = [(client, running.get(client, 0), queued.get(client, 0))
            for client in clients]
    return _table(["client", "running", "queued"], rows,
                  title="per-client queue")


def _render_workers(health: Dict[str, Any]) -> str:
    rows = []
    for pid, worker in sorted((health.get("workers") or {}).items()):
        rows.append((
            pid, worker.get("points", 0),
            _fmt(worker.get("points_per_sec")),
            _fmt(worker.get("busy_seconds"), 2),
            _fmt(worker.get("lease_age_s")),
            worker.get("in_flight") or "idle"))
    return _table(
        ["worker pid", "points", "pts/s", "busy s", "lease age s",
         "in flight"],
        rows, title="workers")


def _render_in_flight(health: Dict[str, Any], limit: int = 8) -> str:
    rows = [(entry.get("point_slug") or entry.get("span_id"),
             entry.get("worker_pid"), _fmt(entry.get("age_s")))
            for entry in (health.get("in_flight") or [])[:limit]]
    return _table(["in-flight point", "worker", "age s"], rows,
                  title="slowest in flight")


# ---------------------------------------------------------------------------
# Offline mode: frame from a telemetry event log
# ---------------------------------------------------------------------------

def fleet_state(events: Iterable[Dict[str, Any]],
                now: Optional[float] = None) -> Dict[str, Any]:
    """Reconstruct a daemon-shaped fleet view from raw telemetry events.

    ``now`` anchors in-flight ages (default: the newest event's
    timestamp, so a finished log renders with zero phantom ages)."""
    events = list(events)
    latest = max((e.get("ts", 0.0) for e in events), default=0.0)
    now = latest if now is None else now
    spans: Dict[str, Dict[str, Any]] = {}
    counters = {"serve.points.queued": 0, "serve.points.deduped": 0,
                "serve.points.cache_hits": 0}
    clients: Dict[str, Dict[str, int]] = {}
    runs: Dict[str, Dict[str, Any]] = {}
    workers: Dict[int, Dict[str, Any]] = {}
    for event in events:
        name = event.get("event")
        run_id = event.get("run_id")
        if run_id:
            run = runs.setdefault(run_id, {"events": 0, "first_ts":
                                           event.get("ts", 0.0)})
            run["events"] += 1
            run["last_ts"] = event.get("ts", 0.0)
        if name == "point_cached":
            counters["serve.points.cache_hits"] += 1
        elif name == "point_deduped":
            counters["serve.points.deduped"] += 1
        span_id = event.get("span_id")
        if not span_id:
            continue
        span = spans.setdefault(span_id, {
            "span_id": span_id, "point_slug": None, "client": None,
            "queued_ts": None, "dispatched_ts": None, "worker_pid": None,
            "elapsed_s": None, "terminal": None})
        if event.get("point_slug"):
            span["point_slug"] = event["point_slug"]
        if name == "point_queued":
            counters["serve.points.queued"] += 1
            span["queued_ts"] = event.get("ts")
            client = event.get("client")
            if client:
                span["client"] = client
                clients.setdefault(client, {"queued": 0, "done": 0})
                clients[client]["queued"] += 1
        elif name == "point_dispatched":
            span["dispatched_ts"] = event.get("ts")
            span["worker_pid"] = event.get("worker_pid")
        elif name == "point_end":
            span["elapsed_s"] = event.get("elapsed_s")
        elif name in _TERMINAL:
            span["terminal"] = name
            if span["client"]:
                clients[span["client"]]["done"] += 1
            pid = span["worker_pid"]
            if pid is not None:
                worker = workers.setdefault(
                    pid, {"points": 0, "busy_seconds": 0.0, "last_ts": 0.0})
                worker["points"] += 1
                worker["busy_seconds"] += span["elapsed_s"] or 0.0
                worker["last_ts"] = max(worker["last_ts"],
                                        event.get("ts", 0.0))
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
            "heartbeat_age_s": round(now - worker["last_ts"], 6),
            "in_flight": next((f["point_slug"] for f in in_flight
                               if f["worker_pid"] == pid), None),
            "lease_age_s": next((f["age_s"] for f in in_flight
                                 if f["worker_pid"] == pid), None),
        }
        for pid, worker in workers.items()}
    done_spans = sum(1 for span in spans.values()
                     if span["terminal"] is not None)
    return {
        "runs": len(runs),
        "spans": len(spans),
        "done_spans": done_spans,
        "counters": counters,
        "clients": clients,
        "workers": worker_rows,
        "in_flight": in_flight,
    }


def render_state_frame(state: Dict[str, Any], source: str = "dir") -> str:
    """One ``repro top`` frame from :func:`fleet_state` output."""
    lines: List[str] = [f"repro top — {source} — "
                        + time.strftime("%H:%M:%S")]
    counters = state["counters"]
    ratio = dedup_ratio(counters)
    lines.append(
        f"runs {state['runs']}  points {state['done_spans']}/"
        f"{state['spans']} done  in flight {len(state['in_flight'])}"
        + (f"  dedup {ratio:.1%}" if ratio is not None else ""))
    if state["clients"]:
        lines.append("")
        rows = [(client, c["queued"], c["done"])
                for client, c in sorted(state["clients"].items())]
        lines.append(_table(["client", "points", "done"], rows,
                            title="per-client"))
    lines.append("")
    lines.append(_render_workers(state))
    lines.append("")
    lines.append(_render_in_flight(state))
    return "\n".join(lines)


def frame_from_dir(directory: str, source: Optional[str] = None) -> str:
    """Read a telemetry directory and render one offline frame."""
    events = telemetry.read_events(directory)
    return render_state_frame(fleet_state(events),
                              source=source or directory)
