"""Structured event trace with Chrome-trace export.

The :class:`Tracer` records cycle-stamped simulation events — DRAM
commands (ACT/PRE/RD/WR/RowClone/refresh), PEI operations, cache
miss/fill/writeback activity, and scheduler thread resume/block — into a
flat list of slotted :class:`TraceEvent` records.  Export targets:

- :meth:`Tracer.to_chrome` — a ``chrome://tracing`` / Perfetto-loadable
  JSON object (one timeline row per bank / requestor / thread),
- :meth:`Tracer.per_requestor` — aggregate per-requestor metrics
  (operation counts, busy cycles, queue delay, row-buffer mix).

Tracing is opt-in: when no tracer is installed the instrumented code pays
only a ``None`` check (see :mod:`repro.obs.core`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.core import Observer

#: Chrome-trace "process" names per event category — each category gets
#: its own top-level group in the trace viewer.
_CATEGORY_PIDS = {"dram": 1, "pim": 2, "cache": 3, "sched": 4}


@dataclass(slots=True)
class TraceEvent:
    """One cycle-stamped simulation event.

    ``ts`` is the event's start (CPU cycles), ``dur`` its extent in
    cycles (0 for instantaneous events), ``tid`` the timeline row it
    renders on (bank, requestor, or thread name).
    """

    name: str
    cat: str
    ts: int
    dur: int
    tid: str
    args: Optional[Dict[str, Any]] = None


def _kind_name(kind: Any) -> Optional[str]:
    return getattr(kind, "value", kind)


class Tracer(Observer):
    """Records :class:`TraceEvent`\\ s from every instrumented component."""

    def __init__(self, cpu_ghz: float = 2.6) -> None:
        if cpu_ghz <= 0:
            raise ValueError("cpu_ghz must be positive")
        self.cpu_ghz = cpu_ghz
        self.events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------

    def on_dram_access(self, op, bank_index, row, kind, requestor, issued,
                       start, service_start, finish, predicted, bank) -> None:
        self.events.append(TraceEvent(
            name=op, cat="dram", ts=service_start,
            dur=finish - service_start, tid=f"bank {bank_index}",
            args={"row": row, "kind": _kind_name(kind),
                  "requestor": requestor, "issued": issued,
                  "queue_delay": service_start - issued}))

    def on_precharge(self, bank_index, issued, service_start, finish,
                     opened_at, had_row, bank) -> None:
        self.events.append(TraceEvent(
            name="PRE", cat="dram", ts=service_start,
            dur=finish - service_start, tid=f"bank {bank_index}",
            args={"had_row": had_row, "opened_at": opened_at}))

    def on_refresh(self, bank_index, blocked_at, window_end, bank) -> None:
        self.events.append(TraceEvent(
            name="REF", cat="dram", ts=blocked_at,
            dur=window_end - blocked_at, tid=f"bank {bank_index}",
            args={"window_end": window_end}))

    def on_rowclone(self, bank_index, src_row, dst_row, kind, issued,
                    service_start, finish, requestor, predicted,
                    bank) -> None:
        self.events.append(TraceEvent(
            name="RowClone", cat="dram", ts=service_start,
            dur=finish - service_start, tid=f"bank {bank_index}",
            args={"src_row": src_row, "dst_row": dst_row,
                  "kind": _kind_name(kind), "requestor": requestor}))

    def on_pei(self, site, addr, issued, finish, requestor, kind,
               bank) -> None:
        self.events.append(TraceEvent(
            name="PEI", cat="pim", ts=issued, dur=finish - issued,
            tid=requestor,
            args={"site": site, "addr": addr, "kind": kind, "bank": bank}))

    def on_cache_miss(self, core, addr, issued, finish, requestor) -> None:
        self.events.append(TraceEvent(
            name="miss", cat="cache", ts=issued, dur=finish - issued,
            tid=requestor, args={"core": core, "addr": addr}))

    def on_cache_writeback(self, addr, time, requestor) -> None:
        self.events.append(TraceEvent(
            name="writeback", cat="cache", ts=time, dur=0, tid=requestor,
            args={"addr": addr}))

    def on_clflush(self, core, addr, issued, finish, requestor,
                   dirty) -> None:
        self.events.append(TraceEvent(
            name="clflush", cat="cache", ts=issued, dur=finish - issued,
            tid=requestor, args={"core": core, "addr": addr, "dirty": dirty}))

    def on_thread_resume(self, name, now, sched_id) -> None:
        self.events.append(TraceEvent(
            name="resume", cat="sched", ts=now, dur=0, tid=name))

    def on_thread_block(self, name, now, reason, sched_id) -> None:
        self.events.append(TraceEvent(
            name="block", cat="sched", ts=now, dur=0, tid=name,
            args={"on": reason}))

    # ------------------------------------------------------------------
    # Analysis / export
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event counts by name (``{"RD": 812, "REF": 3, ...}``)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.name] = out.get(event.name, 0) + 1
        return out

    def per_requestor(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate DRAM-level metrics per requestor.

        For each requestor: operation count, busy cycles (bank service
        time), total queue delay, and the row-buffer outcome mix — the
        per-requestor view a memory-side performance counter would expose.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for event in self.events:
            if event.cat != "dram" or event.args is None:
                continue
            requestor = event.args.get("requestor")
            if requestor is None:
                continue
            row = out.setdefault(requestor, {
                "operations": 0, "busy_cycles": 0, "queue_cycles": 0,
                "hits": 0, "empties": 0, "conflicts": 0})
            row["operations"] += 1
            row["busy_cycles"] += event.dur
            row["queue_cycles"] += event.args.get("queue_delay", 0)
            kind = event.args.get("kind")
            if kind == "hit":
                row["hits"] += 1
            elif kind == "empty":
                row["empties"] += 1
            elif kind == "conflict":
                row["conflicts"] += 1
        return out

    def to_chrome(self, extra: Optional[Dict[str, Any]] = None,
                  ) -> Dict[str, Any]:
        """The trace as a ``chrome://tracing`` JSON object.

        Cycle stamps convert to microseconds through ``cpu_ghz`` (the
        Trace Event Format's ``ts``/``dur`` unit); instantaneous events
        use phase ``"i"``, spans use complete events (``"X"``).
        ``extra`` merges into ``otherData`` — the sweep runner stamps
        provenance (worker pid, ``point_slug``, the point's ``wall_s``)
        there so traces from different pool workers sharing a trace dir
        can never mis-join.
        """
        scale = 1.0 / (self.cpu_ghz * 1000.0)  # cycles -> microseconds
        trace_events: List[Dict[str, Any]] = []
        for event in self.events:
            record: Dict[str, Any] = {
                "name": event.name,
                "cat": event.cat,
                "pid": _CATEGORY_PIDS.get(event.cat, 0),
                "tid": event.tid,
                "ts": event.ts * scale,
            }
            if event.dur > 0:
                record["ph"] = "X"
                record["dur"] = event.dur * scale
            else:
                record["ph"] = "i"
                record["s"] = "t"
            if event.args:
                record["args"] = event.args
            trace_events.append(record)
        other_data: Dict[str, Any] = {
            "cpu_ghz": self.cpu_ghz,
            "event_counts": self.counts(),
        }
        if extra:
            other_data.update(extra)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": other_data,
        }

    def write_chrome(self, path: str,
                     extra: Optional[Dict[str, Any]] = None) -> str:
        """Serialize :meth:`to_chrome` to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(extra), fh)
        return path


def summarize_chrome_trace(path: str) -> Dict[str, Any]:
    """Summarize an on-disk Chrome-trace JSON without re-running anything.

    Reconstructs the :meth:`Tracer.per_requestor` aggregates — operation
    counts, busy cycles, queue delay, row-buffer outcome mix — and the
    overall event counts, from a file written by
    :meth:`Tracer.write_chrome` (``repro trace`` / a sweep's
    ``trace_dir``).  Durations stored in microseconds convert back to
    cycles through the file's recorded ``cpu_ghz``.  No cycle span is
    reported: each channel's scheduler starts at cycle 0, so the
    timelines of a point's transmissions overlap.  The sweep runner's
    stamps (``pid``, ``point_slug``, ``wall_s``) come back as
    ``provenance``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    other = data.get("otherData", {})
    cpu_ghz = float(other.get("cpu_ghz", 2.6))
    scale = cpu_ghz * 1000.0  # microseconds -> cycles
    counts: Dict[str, int] = {}
    per_requestor: Dict[str, Dict[str, Any]] = {}
    for event in data.get("traceEvents", []):
        name = event.get("name", "?")
        counts[name] = counts.get(name, 0) + 1
        args = event.get("args") or {}
        requestor = args.get("requestor")
        if event.get("cat") in ("pim", "cache", "sched"):
            # These categories render on per-requestor/thread rows.
            requestor = requestor or event.get("tid")
        if requestor is None:
            continue
        row = per_requestor.setdefault(requestor, {
            "events": 0, "operations": 0, "busy_cycles": 0,
            "queue_cycles": 0, "hits": 0, "empties": 0, "conflicts": 0})
        row["events"] += 1
        if event.get("cat") == "dram":
            row["operations"] += 1
            row["busy_cycles"] += int(round(event.get("dur", 0.0) * scale))
            row["queue_cycles"] += args.get("queue_delay", 0)
            kind = args.get("kind")
            if kind == "hit":
                row["hits"] += 1
            elif kind == "empty":
                row["empties"] += 1
            elif kind == "conflict":
                row["conflicts"] += 1
    summary = {
        "path": path,
        "cpu_ghz": cpu_ghz,
        "events": sum(counts.values()),
        "counts": counts,
        "per_requestor": per_requestor,
    }
    provenance = {key: other[key]
                  for key in ("pid", "point_slug", "wall_s")
                  if key in other}
    if provenance:
        summary["provenance"] = provenance
    return summary
