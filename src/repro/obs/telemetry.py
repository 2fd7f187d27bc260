"""Fleet telemetry: causal event log, worker health, structured logging.

Three cooperating pieces, all zero-cost when their env switch is unset:

**Causal event log.**  When ``REPRO_TELEMETRY_DIR`` is set, every sweep
and serve lifecycle transition appends one NDJSON record to a per-process
file (``events-<pid>.ndjson``) in that directory.  Records carry two
causal IDs — a ``run_id`` minted per :func:`repro.exp.runner.run_sweep`
call / per submitted serve job, and a ``span_id`` minted per point — that
the runner and scheduler propagate into forked pool workers through the
existing ``REPRO_*`` env mirroring (:func:`repro.exp.runner.
pool_task_env`).  A point's records therefore stitch into one chain
across processes::

    point_queued -> point_dispatched -> point_start -> point_end
                 -> point_committed            (or point_failed /
                    [point_retried -> ...]      point_cancelled)

``point_start``/``point_end`` are written by the executing process
(worker or parent); everything else by the coordinating parent.  Records
include ``point_slug`` where known, joining them with the per-point
Chrome-trace and metrics files the same sweep writes.  :func:`read_events`
merges a telemetry dir back into one time-ordered list,
:func:`causal_chains` groups it by span, and :func:`verify_chains` checks
chain integrity (no orphan spans, no duplicate terminal events, each
repeated execution behind its own ``point_retried`` marker).

**Worker health.**  :class:`FleetHealth` tracks per-worker throughput,
lease age, and in-flight points with their ages; the metrics endpoint
surfaces the snapshot and ``repro top`` lists the slowest in flight.

**Structured logging.**  :func:`log` replaces ad-hoc ``print``/stderr
diagnostics: one JSON object per line on stderr, gated by
``REPRO_LOG=<level>`` (off by default; ``debug`` < ``info`` < ``warning``
< ``error``), stamped with pid and the ambient run/span IDs.

Like the tracer and metrics hooks (PR 3/4), nothing here imports the
simulation core, and every emit site guards on one env lookup — the hot
simulator paths are never touched at all: telemetry records lifecycle
events (per point), not simulation events (per cycle).
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple

#: Directory that switches the event log on; unset (the default) makes
#: every :func:`emit` a single dict lookup returning immediately.
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"
#: Ambient causal IDs, mirrored into pool workers per task.
ENV_RUN_ID = "REPRO_RUN_ID"
ENV_SPAN_ID = "REPRO_SPAN_ID"
#: Structured-log threshold (``debug``/``info``/``warning``/``error``;
#: unset or ``off`` disables logging entirely).
ENV_LOG = "REPRO_LOG"

#: Events that close a span's causal chain.
TERMINAL_EVENTS = frozenset(
    {"point_committed", "point_failed", "point_cancelled"})


def new_run_id() -> str:
    """A fresh run ID (one sweep / one serve job)."""
    return "run-" + uuid.uuid4().hex[:12]


def new_span_id() -> str:
    """A fresh span ID (one point's execution chain)."""
    return "span-" + uuid.uuid4().hex[:12]


def enabled() -> bool:
    """True when the event log is switched on for this process."""
    return bool(os.environ.get(ENV_TELEMETRY_DIR))


def current_ids() -> Tuple[Optional[str], Optional[str]]:
    """The ambient ``(run_id, span_id)`` from the environment — what a
    forked worker inherits through the per-task env overlay."""
    return os.environ.get(ENV_RUN_ID), os.environ.get(ENV_SPAN_ID)


# ---------------------------------------------------------------------------
# Event sink
# ---------------------------------------------------------------------------

# One append-only NDJSON file per (directory, pid): processes never share
# a file handle, so records from concurrent workers cannot interleave
# mid-line, and a forked child transparently opens its own file on its
# first emit (the cached pid no longer matches).
_sink: Optional[Tuple[str, int, TextIO]] = None


def _writer() -> Optional[TextIO]:
    global _sink
    directory = os.environ.get(ENV_TELEMETRY_DIR)
    if not directory:
        return None
    pid = os.getpid()
    if _sink is not None and _sink[0] == directory and _sink[1] == pid:
        return _sink[2]
    if _sink is not None and _sink[1] == pid:
        try:
            _sink[2].close()
        except OSError:
            pass
    try:
        os.makedirs(directory, exist_ok=True)
        handle = open(os.path.join(directory, f"events-{pid}.ndjson"),
                      "a", encoding="utf-8")
    except OSError:
        return None
    _sink = (directory, pid, handle)
    return handle


def reset_sink() -> None:
    """Close and forget the cached sink (tests switching directories)."""
    global _sink
    if _sink is not None:
        try:
            _sink[2].close()
        except OSError:
            pass
    _sink = None


def emit(event: str, *, run_id: Optional[str] = None,
         span_id: Optional[str] = None, **fields: Any) -> None:
    """Append one lifecycle record; a no-op unless ``REPRO_TELEMETRY_DIR``
    is set.  ``run_id``/``span_id`` default to the ambient env values, so
    a forked worker needs no explicit plumbing.  Never raises: telemetry
    must not be able to take a sweep down."""
    handle = _writer()
    if handle is None:
        return
    record: Dict[str, Any] = {"ts": round(time.time(), 6), "event": event,
                              "pid": os.getpid()}
    run_id = run_id or os.environ.get(ENV_RUN_ID)
    span_id = span_id or os.environ.get(ENV_SPAN_ID)
    if run_id:
        record["run_id"] = run_id
    if span_id:
        record["span_id"] = span_id
    record.update(fields)
    try:
        handle.write(json.dumps(record, separators=(",", ":"), default=str)
                     + "\n")
        handle.flush()  # keep the buffer empty across forks and crashes
    except (OSError, ValueError):
        pass


# ---------------------------------------------------------------------------
# Reading the log back
# ---------------------------------------------------------------------------

def read_events(directory: str) -> List[Dict[str, Any]]:
    """Every record in a telemetry directory, merged across per-process
    files and sorted by timestamp.  Torn trailing lines (a worker killed
    mid-write) are skipped, not fatal."""
    events: List[Dict[str, Any]] = []
    for path in sorted(glob.glob(os.path.join(directory, "events-*.ndjson"))):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        events.append(record)
        except OSError:
            continue
    events.sort(key=lambda record: record.get("ts", 0.0))
    return events


def causal_chains(events: Iterable[Dict[str, Any]],
                  ) -> Dict[str, List[Dict[str, Any]]]:
    """Group records by ``span_id`` (records without one — run-level
    events, cache hits — are omitted), each chain in time order."""
    chains: Dict[str, List[Dict[str, Any]]] = {}
    for record in events:
        span = record.get("span_id")
        if span:
            chains.setdefault(span, []).append(record)
    return chains


def verify_chains(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Integrity problems in a telemetry log's causal chains; empty means
    every span tells one coherent story.  Checked per span:

    - exactly one ``point_queued`` (an orphan span was never queued; two
      means a span_id collision);
    - at least one terminal event (``point_committed`` / ``point_failed``
      / ``point_cancelled``) — none is an incomplete chain; several
      without a retry marker, a double commit;
    - at most one ``point_start`` per execution: each repeat needs its
      own ``point_retried`` marker (worker death, pool fallback);
    - a single ``point_slug`` (two slugs under one span is a mis-join).
    """
    problems: List[str] = []
    for span, chain in causal_chains(events).items():
        names = [record.get("event") for record in chain]
        queued = names.count("point_queued")
        starts = names.count("point_start")
        retried = names.count("point_retried")
        terminal = sum(names.count(name) for name in TERMINAL_EVENTS)
        slugs = {record["point_slug"] for record in chain
                 if record.get("point_slug")}
        if queued == 0:
            problems.append(f"{span}: orphan span (no point_queued)")
        elif queued > 1:
            problems.append(f"{span}: queued {queued} times "
                            f"(span_id collision?)")
        if terminal == 0:
            problems.append(f"{span}: incomplete chain (no terminal event)")
        elif terminal > 1 and retried == 0:
            problems.append(f"{span}: {terminal} terminal events")
        if starts > 1 + retried:
            problems.append(f"{span}: {starts} executions without a "
                            f"point_retried marker for each repeat")
        if len(slugs) > 1:
            problems.append(f"{span}: multiple point slugs {sorted(slugs)}")
    return problems


# ---------------------------------------------------------------------------
# Worker health
# ---------------------------------------------------------------------------

class FleetHealth:
    """Running health model of a worker fleet.

    Fed two moments per point — :meth:`record_dispatch` when a point is
    handed to a worker, :meth:`record_done` when its reply lands — it
    maintains per-worker throughput (points, busy seconds, points/s,
    last-heartbeat age) and the set of in-flight points with lease ages.
    """

    def __init__(self) -> None:
        self._workers: Dict[int, Dict[str, Any]] = {}
        self._inflight: Dict[str, Dict[str, Any]] = {}

    def _worker(self, pid: int, now: float) -> Dict[str, Any]:
        entry = self._workers.get(pid)
        if entry is None:
            entry = self._workers[pid] = {
                "points": 0, "failures": 0, "busy_seconds": 0.0,
                "first_seen": now, "last_heartbeat": now}
        return entry

    def record_dispatch(self, pid: int, span_id: str,
                        point_slug: Optional[str] = None,
                        now: Optional[float] = None) -> None:
        """A point left for worker ``pid`` (``span_id`` keys the flight)."""
        now = time.monotonic() if now is None else now
        self._worker(pid, now)["last_heartbeat"] = now
        self._inflight[span_id] = {"pid": pid, "point_slug": point_slug,
                                   "started": now}

    def record_done(self, pid: int, span_id: str, ok: bool = True,
                    now: Optional[float] = None) -> None:
        """A point's reply landed (``ok=False``: it raised or its worker
        died)."""
        now = time.monotonic() if now is None else now
        worker = self._worker(pid, now)
        worker["last_heartbeat"] = now
        flight = self._inflight.pop(span_id, None)
        worker["points"] += 1
        if not ok:
            worker["failures"] += 1
        if flight is not None:
            worker["busy_seconds"] += now - flight["started"]

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON-able health view for the metrics endpoint / ``repro top``:
        per-worker gauges and in-flight points sorted slowest-first."""
        now = time.monotonic() if now is None else now
        workers: Dict[str, Dict[str, Any]] = {}
        inflight_by_pid: Dict[int, str] = {
            flight["pid"]: span for span, flight in self._inflight.items()}
        for pid, entry in self._workers.items():
            busy = entry["busy_seconds"]
            span = inflight_by_pid.get(pid)
            flight = self._inflight.get(span) if span else None
            workers[str(pid)] = {
                "points": entry["points"],
                "failures": entry["failures"],
                "busy_seconds": round(busy, 6),
                "points_per_sec": (round(entry["points"] / busy, 3)
                                   if busy > 0 else None),
                "heartbeat_age_s": round(now - entry["last_heartbeat"], 6),
                "in_flight": flight["point_slug"] if flight else None,
                "lease_age_s": (round(now - flight["started"], 6)
                                if flight else None),
            }
        in_flight = sorted(
            ({"span_id": span, "worker_pid": flight["pid"],
              "point_slug": flight["point_slug"],
              "age_s": round(now - flight["started"], 6)}
             for span, flight in self._inflight.items()),
            key=lambda entry: -entry["age_s"])
        return {
            "completed_points": sum(w["points"]
                                    for w in self._workers.values()),
            "workers": workers,
            "in_flight": in_flight,
        }


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------

_LOG_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def log_threshold() -> Optional[int]:
    """Numeric threshold from ``REPRO_LOG``, or ``None`` when logging is
    off (the default).  ``REPRO_LOG=1`` means ``info``."""
    raw = os.environ.get(ENV_LOG, "").strip().lower()
    if not raw or raw in ("0", "off", "false", "no"):
        return None
    if raw in ("1", "on", "true", "yes"):
        return _LOG_LEVELS["info"]
    return _LOG_LEVELS.get(raw, _LOG_LEVELS["info"])


def log(level: str, subsystem: str, message: str, **fields: Any) -> None:
    """One structured diagnostic line on stderr, or nothing.

    ``level`` is ``debug``/``info``/``warning``/``error``; records below
    the ``REPRO_LOG`` threshold (or all of them, when unset) cost one env
    lookup.  The record carries pid and the ambient causal IDs so fleet
    diagnostics join the event log."""
    threshold = log_threshold()
    if threshold is None or _LOG_LEVELS.get(level, 20) < threshold:
        return
    record: Dict[str, Any] = {"ts": round(time.time(), 6), "level": level,
                              "subsystem": subsystem, "msg": message,
                              "pid": os.getpid()}
    run_id, span_id = current_ids()
    if run_id:
        record["run_id"] = run_id
    if span_id:
        record["span_id"] = span_id
    record.update(fields)
    try:
        print(json.dumps(record, separators=(",", ":"), default=str),
              file=sys.stderr, flush=True)
    except (OSError, ValueError):
        pass


# ---------------------------------------------------------------------------
# Fleet-test helper
# ---------------------------------------------------------------------------

def sleep_point(seconds: float = 0.0, tag: Any = None) -> Dict[str, Any]:
    """Importable sweep-point function that just sleeps — the injected
    latency workload for telemetry smoke tests (submit with
    ``fn="repro.obs.telemetry:sleep_point"``)."""
    time.sleep(max(0.0, float(seconds)))
    return {"slept": float(seconds), "tag": tag}
