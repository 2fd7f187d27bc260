"""Sweep telemetry: the causal event log.

Zero-cost when its env switch is unset: when ``REPRO_TELEMETRY_DIR`` is
set, every sweep lifecycle transition appends one NDJSON record to a
per-process file (``events-<pid>.ndjson``) in that directory.  Records
carry two causal IDs — a ``run_id`` minted per
:func:`repro.exp.runner.run_sweep` call and a ``span_id`` minted per
point — that the runner propagates into forked pool workers through the
existing ``REPRO_*`` env mirroring (:func:`repro.exp.runner.
pool_task_env`).  A point's records therefore stitch into one chain
across processes::

    point_queued -> point_dispatched -> point_start -> point_end
                 -> point_committed            (or point_failed)
                    [point_retried -> ...]

``point_start``/``point_end`` are written by the executing process
(worker or parent); everything else by the coordinating parent.  Records
include ``point_slug`` where known, joining them with the per-point
Chrome-trace and metrics files the same sweep writes.  :func:`read_events`
merges a telemetry dir back into one time-ordered list,
:func:`causal_chains` groups it by span, and :func:`verify_chains` checks
chain integrity (no orphan spans, no double commit, each repeated
execution behind its own ``point_retried`` marker).

Like the tracer and metrics hooks, nothing here imports the
simulation core, and every emit site guards on one env lookup — the hot
simulator paths are never touched at all: telemetry records lifecycle
events (per point), not simulation events (per cycle).
"""

from __future__ import annotations

import glob
import json
import os
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple

#: Directory that switches the event log on; unset (the default) makes
#: every :func:`emit` a single dict lookup returning immediately.
ENV_TELEMETRY_DIR = "REPRO_TELEMETRY_DIR"
#: Ambient causal IDs, mirrored into pool workers per task.
ENV_RUN_ID = "REPRO_RUN_ID"
ENV_SPAN_ID = "REPRO_SPAN_ID"

#: Events that close a span's causal chain.
TERMINAL_EVENTS = frozenset({"point_committed", "point_failed"})


def new_run_id() -> str:
    """A fresh run ID (one sweep)."""
    return "run-" + uuid.uuid4().hex[:12]


def new_span_id() -> str:
    """A fresh span ID (one point's execution chain)."""
    return "span-" + uuid.uuid4().hex[:12]


def enabled() -> bool:
    """True when the event log is switched on for this process."""
    return bool(os.environ.get(ENV_TELEMETRY_DIR))


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
    - at least one terminal event (``point_committed`` / ``point_failed``)
      — none is an incomplete chain;
    - at most one ``point_committed``, retried or not: a second commit
      is a double commit;
    - at most one ``point_start`` and one terminal event per execution:
      each repeat needs its own ``point_retried`` marker (pool fallback);
    - a single ``point_slug`` (two slugs under one span is a mis-join).
    """
    problems: List[str] = []
    for span, chain in causal_chains(events).items():
        names = [record.get("event") for record in chain]
        queued = names.count("point_queued")
        starts = names.count("point_start")
        retried = names.count("point_retried")
        committed = names.count("point_committed")
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
        elif terminal > 1 + retried:
            problems.append(f"{span}: {terminal} terminal events without a "
                            f"point_retried marker for each repeat")
        if committed > 1:
            problems.append(f"{span}: committed {committed} times")
        if starts > 1 + retried:
            problems.append(f"{span}: {starts} executions without a "
                            f"point_retried marker for each repeat")
        if len(slugs) > 1:
            problems.append(f"{span}: multiple point slugs {sorted(slugs)}")
    return problems
