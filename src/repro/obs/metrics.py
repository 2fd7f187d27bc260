"""Metrics registry and phase profiler (``repro.obs.metrics``).

A :class:`MetricsRegistry` holds three instrument kinds — monotonic
:class:`Counter`\\ s, last/max-value :class:`Gauge`\\ s, and fixed-bucket
:class:`Histogram`\\ s — plus a wall-clock :class:`PhaseProfiler`.  It is
fed two ways:

- :class:`MetricsObserver` adapts the :class:`repro.obs.Observer` hook
  protocol, so every instrumented component (memory controller, banks,
  cache hierarchy, scheduler, PEI engine) streams into the registry with
  no new hook sites;
- higher layers (attack channels, the sweep runner) record directly:
  per-channel bit/error counters, probe-latency histograms, and
  :func:`phase` timers around warm-up / transmit / decode and the
  simulator hot paths.

Zero cost when off: like tracing, metrics ride the existing
``if observer is not None`` guards, and the module-level :func:`phase`
helper returns a shared no-op context manager when no registry is
installed — the only always-on cost is one global load per *phase*, never
per simulated operation.

The process-global :func:`install`/:func:`current`/:func:`uninstall`
trio mirrors ``repro.obs.install`` for tracers, and for the same reason:
systems and schedulers are built deep inside sweep workers, so the
registry must be discoverable without threading it through every
constructor.  ``run_sweep(metrics_dir=...)`` installs one registry per
point (serial or forked worker) and writes its JSON next to the point's
trace.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.core import Observer

#: Default histogram edges (upper bounds, cycles) sized for the latency
#: range the paper's channels live in: row-buffer hits ~60-120 cycles,
#: conflicts ~200-300, PEI round trips and refresh stalls up to a few
#: thousand.  Values above the last edge land in an overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[int, ...] = (
    32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 512, 768, 1024,
    2048, 4096)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last written, with a max-tracking helper)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def update_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max accumulators.

    ``edges`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last edge.  Buckets are fixed at
    construction so histograms from different runs (or worker processes)
    merge by element-wise addition.
    """

    __slots__ = ("name", "edges", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str,
                 edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be non-empty and sorted")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Batch form of :meth:`observe` for hot paths that collect
        thousands of samples per call (e.g. one probe latency per
        transmitted bit): bucket in one tight loop, fold count/total/
        min/max with the C-level builtins."""
        if not isinstance(values, (list, tuple)):
            values = list(values)
        if not values:
            return
        counts = self.counts
        edges = self.edges
        for value in values:
            counts[bisect_left(edges, value)] += 1
        self.count += len(values)
        self.total += sum(values)
        low = min(values)
        high = max(values)
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }


class _Phase:
    """A live phase timer; used as a context manager."""

    __slots__ = ("_profiler", "name", "ops", "_started")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self.name = name
        self.ops = 0
        self._started = 0.0

    def add_ops(self, count: int) -> None:
        """Attribute ``count`` operations to this phase (for ops/s)."""
        self.ops += count

    def __enter__(self) -> "_Phase":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profiler.record(self.name, time.perf_counter() - self._started,
                              self.ops)


class _NullPhase:
    """Shared no-op phase handed out when no registry is installed."""

    __slots__ = ()

    def add_ops(self, count: int) -> None:
        pass

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NULL_PHASE = _NullPhase()


class PhaseProfiler:
    """Wall-clock timers around named phases (warm-up, transmit, decode,
    sweep-point execution), with optional operation counts for ops/s.

    Phases may nest or repeat; each ``record`` accumulates into the named
    slot, so overlapping phases each report their own wall time (the sum
    over phases can exceed real elapsed time — they are per-phase views,
    not a partition).
    """

    def __init__(self) -> None:
        # name -> [seconds, calls, ops]
        self._records: Dict[str, List[float]] = {}

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    def record(self, name: str, seconds: float, ops: int = 0) -> None:
        slot = self._records.setdefault(name, [0.0, 0, 0])
        slot[0] += seconds
        slot[1] += 1
        slot[2] += ops

    def __len__(self) -> int:
        return len(self._records)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name, (seconds, calls, ops) in sorted(self._records.items()):
            entry: Dict[str, float] = {
                "seconds": round(seconds, 6), "calls": calls, "ops": ops}
            if ops and seconds > 0:
                entry["ops_per_sec"] = round(ops / seconds, 1)
            out[name] = entry
        return out


class MetricsRegistry:
    """Named counters, gauges, fixed-bucket histograms, and a profiler."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.profiler = PhaseProfiler()

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, edges)
        return histogram

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self.histograms.items())},
            "phases": self.profiler.to_dict(),
        }

    def write_json(self, path: str, extra: Optional[Dict[str, Any]] = None) -> str:
        """Serialize :meth:`to_dict` (plus ``extra`` top-level fields) to
        ``path``; returns the path."""
        payload = dict(extra or {})
        payload.update(self.to_dict())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return path

    @staticmethod
    def merge_dicts(dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Element-wise sum of several :meth:`to_dict` payloads (counters,
        histogram buckets, phase times); gauges take the max.  Used to
        aggregate per-point metrics files into sweep totals."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        phases: Dict[str, Dict[str, float]] = {}
        for payload in dicts:
            for name, value in payload.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in payload.get("gauges", {}).items():
                if name not in gauges or value > gauges[name]:
                    gauges[name] = value
            for name, hist in payload.get("histograms", {}).items():
                merged = histograms.get(name)
                if merged is None or merged["edges"] != hist["edges"]:
                    if merged is not None:
                        raise ValueError(
                            f"histogram {name!r} has mismatched edges")
                    histograms[name] = {key: (list(val)
                                              if isinstance(val, list) else val)
                                        for key, val in hist.items()}
                    continue
                merged["counts"] = [a + b for a, b in zip(merged["counts"],
                                                          hist["counts"])]
                merged["count"] += hist["count"]
                merged["sum"] += hist["sum"]
                merged["mean"] = (merged["sum"] / merged["count"]
                                  if merged["count"] else 0.0)
                for key, pick in (("min", min), ("max", max)):
                    values = [v for v in (merged[key], hist[key])
                              if v is not None]
                    merged[key] = pick(values) if values else None
            for name, entry in payload.get("phases", {}).items():
                slot = phases.setdefault(
                    name, {"seconds": 0.0, "calls": 0, "ops": 0})
                slot["seconds"] += entry.get("seconds", 0.0)
                slot["calls"] += entry.get("calls", 0)
                slot["ops"] += entry.get("ops", 0)
        for entry in phases.values():
            if entry["ops"] and entry["seconds"] > 0:
                entry["ops_per_sec"] = round(entry["ops"] / entry["seconds"], 1)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "phases": phases}


class MetricsObserver(Observer):
    """Adapts the Observer hook protocol onto a :class:`MetricsRegistry`.

    One instance per instrumented component graph (a ``System`` or a
    ``Scheduler``); several instances may share one registry — the hook
    families they receive are disjoint, so nothing double-counts.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        # Hot instruments resolved once, not per event.
        self._ops = {op: registry.counter(f"dram.{op}")
                     for op in ("RD", "WR", "ACT")}
        self._queue_delay = registry.histogram("dram.queue_delay")
        self._service = registry.histogram("dram.service_cycles")
        self._horizon = registry.gauge("sim.horizon_cycles")

    def on_dram_access(self, op, bank_index, row, kind, requestor, issued,
                       start, service_start, finish, predicted, bank) -> None:
        registry = self.registry
        counter = self._ops.get(op)
        if counter is None:
            counter = registry.counter(f"dram.{op}")
        counter.inc()
        kind_name = getattr(kind, "value", kind)
        if kind_name is not None:
            registry.counter(f"dram.outcome.{kind_name}").inc()
        registry.counter(f"dram.ops.{requestor}").inc()
        self._queue_delay.observe(service_start - issued)
        self._service.observe(finish - service_start)
        self._horizon.update_max(finish)

    def on_precharge(self, bank_index, issued, service_start, finish,
                     opened_at, had_row, bank) -> None:
        self.registry.counter("dram.PRE").inc()
        self._horizon.update_max(finish)

    def on_refresh(self, bank_index, blocked_at, window_end, bank) -> None:
        self.registry.counter("dram.REF").inc()
        self.registry.histogram("dram.refresh_stall").observe(
            window_end - blocked_at)

    def on_rowclone(self, bank_index, src_row, dst_row, kind, issued,
                    service_start, finish, requestor, predicted, bank) -> None:
        self.registry.counter("dram.RowClone").inc()
        self.registry.counter(f"dram.ops.{requestor}").inc()
        self._horizon.update_max(finish)

    def on_pei(self, site, addr, issued, finish, requestor, kind,
               bank) -> None:
        self.registry.counter(f"pei.{site}").inc()
        self.registry.histogram("pei.latency").observe(finish - issued)

    def on_cache_miss(self, core, addr, issued, finish, requestor) -> None:
        self.registry.counter("cache.miss").inc()
        self.registry.histogram("cache.miss_latency").observe(finish - issued)

    def on_cache_writeback(self, addr, time_, requestor) -> None:
        self.registry.counter("cache.writeback").inc()

    def on_clflush(self, core, addr, issued, finish, requestor,
                   dirty) -> None:
        self.registry.counter("cache.clflush").inc()

    def on_thread_resume(self, name, now, sched_id) -> None:
        self.registry.counter("sched.resume").inc()

    def on_thread_block(self, name, now, reason, sched_id) -> None:
        self.registry.counter("sched.block").inc()

    def on_clock_reset(self, reason) -> None:
        self.registry.counter(f"sim.clock_reset.{reason}").inc()


# ---------------------------------------------------------------------------
# Process-global registry (mirrors repro.obs.install for observers)
# ---------------------------------------------------------------------------

_active: Optional[MetricsRegistry] = None


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Make ``registry`` the process-global metrics registry.  Systems and
    schedulers built afterwards feed it; returns it for chaining."""
    global _active
    _active = registry
    return registry


def uninstall() -> None:
    """Remove the process-global metrics registry."""
    global _active
    _active = None


def current() -> Optional[MetricsRegistry]:
    """The installed process-global registry, or ``None``."""
    return _active


def phase(name: str):
    """A phase-timer context manager on the global registry's profiler;
    a shared no-op when metrics are off (safe on hot-ish paths — one
    global load per phase, nothing per simulated operation)::

        with metrics.phase("transmit") as ph:
            result = channel.transmit(message)
            ph.add_ops(len(message))
    """
    registry = _active
    if registry is None:
        return NULL_PHASE
    return registry.profiler.phase(name)
