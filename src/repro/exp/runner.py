"""Parallel sweep runner.

Fans independent :class:`~repro.exp.sweep.SweepPoint`\\ s out across a
persistent fork-server :class:`WorkerPool`.  Each point constructs its
own ``System`` inside the worker, and every stochastic component of the
simulator is seeded from its config, so parallel results are
bit-identical to serial execution — the runner only changes wall-clock
time, never numbers.

Unlike the per-sweep ``ProcessPoolExecutor`` this replaced, the pool's
workers survive across sweeps, so only the first parallel sweep pays
for process start-up.
Because workers fork *before* later environment changes, every task
carries a ``REPRO_*`` environment overlay captured in the parent at
dispatch time — trace/metrics directories and sanitizer flags behave
exactly as if the worker had been forked fresh.

Degradation is graceful by design: ``jobs=1``, a single pending point, or
an environment where worker processes cannot be spawned (sandboxes without
semaphores, exotic interpreters) all fall back to in-process serial
execution of the exact same point functions; a broken pool is torn down
and the pending points re-run serially.

Observability survives the fan-out: when ``REPRO_TRACE_DIR`` /
``REPRO_METRICS_DIR`` are set (directly, or via
``run_sweep(trace_dir=..., metrics_dir=...)``, which exports them around
the sweep so forked workers inherit them), every point — serial or in a
worker process — runs under a fresh :class:`repro.obs.Tracer` and/or
:class:`repro.obs.MetricsRegistry` and writes its Chrome-trace / metrics
JSON into those directories, named after the point's label (see
:func:`point_slug`).  ``repro report`` joins these files with the sweep
payloads into one run report.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import re
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro import obs
from repro.exp.cache import ResultCache
from repro.exp.sweep import SweepPoint
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry


class PoolUnavailableError(RuntimeError):
    """Worker processes cannot be spawned or the pool's pipes broke.

    An *infrastructure* failure, distinct from a sweep point raising: the
    runner falls back to serial in-process execution on this error, while
    a point's own exception propagates to the caller (after completed
    in-flight results have been committed)."""


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: the CPUs available to
    *this process*.  ``os.process_cpu_count()`` (Python 3.13+) already
    honours CPU affinity; on older interpreters fall back to
    ``len(os.sched_getaffinity(0))`` so cgroup- or taskset-restricted CI
    boxes don't oversubscribe the pool, and only then to the raw
    ``os.cpu_count()`` (platforms without affinity, e.g. macOS)."""
    counter = getattr(os, "process_cpu_count", None)
    if counter is None:
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                return max(1, len(affinity(0)))
            except OSError:
                pass
        counter = os.cpu_count
    return max(1, counter() or 1)


@dataclass
class SweepOutcome:
    """Results of one sweep, in point order, plus execution metadata."""

    results: List[Any]
    jobs: int
    parallel: bool
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    fallback_reason: Optional[str] = None
    #: Always 0: every point builds fresh systems, and nothing is reused
    #: between points except result-cache entries (``cache_hits``).  The
    #: field stays because benchmark harnesses read it to prove a run
    #: was cold.
    warm_hits: int = 0
    points: Sequence[SweepPoint] = field(default_factory=tuple)
    #: Causal run ID minted for this sweep — every telemetry record,
    #: stamped trace, and stamped metrics JSON the sweep produced carries
    #: it (see :mod:`repro.obs.telemetry`).
    run_id: Optional[str] = None

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Any:
        return self.results[index]


def point_slug(point: SweepPoint) -> str:
    """Filesystem-safe name for a point's per-point artifacts (trace and
    metrics files share it, so reports can join them by label)."""
    slug = re.sub(r"[^A-Za-z0-9._=-]+", "_", point.describe()).strip("_")
    return slug[:120] or "point"


def _trace_path(trace_dir: str, point: SweepPoint) -> str:
    return os.path.join(trace_dir, f"{point_slug(point)}.trace.json")


def metrics_path(metrics_dir: str, point: SweepPoint) -> str:
    """Where a point's metrics JSON lands under ``metrics_dir``."""
    return os.path.join(metrics_dir, f"{point_slug(point)}.metrics.json")


def _run_point(point: SweepPoint, run_id: Optional[str] = None,
               span_id: Optional[str] = None) -> Any:
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    metrics_dir = os.environ.get("REPRO_METRICS_DIR")
    if not trace_dir and not metrics_dir and not telemetry.enabled():
        return point.run()
    # Causal IDs arrive explicitly (serial path) or through the env
    # overlay mirrored into forked workers (pool path).
    run_id = run_id or os.environ.get(telemetry.ENV_RUN_ID)
    span_id = span_id or os.environ.get(telemetry.ENV_SPAN_ID)
    slug = point_slug(point)
    # Provenance stamped into the trace/metrics artifacts: two sweeps
    # sharing a directory (or two pool workers racing on one) stay
    # distinguishable and joinable by run/span, not just filename.
    provenance: Dict[str, Any] = {"pid": os.getpid(), "point_slug": slug}
    if run_id:
        provenance["run_id"] = run_id
    if span_id:
        provenance["span_id"] = span_id
    telemetry.emit("point_start", run_id=run_id, span_id=span_id,
                   point_slug=slug, experiment=point.experiment)
    # Per-point tracer/metrics registry, installed process-globally so the
    # Systems and schedulers the point builds internally pick them up.
    # Works identically in the parent (serial path) and in forked workers,
    # which inherit the environment variables.
    tracer = None
    previous_observer = obs.current_observer()
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        tracer = obs.Tracer()
        obs.install(tracer)
    registry = None
    previous_registry = obs_metrics.current()
    if metrics_dir:
        os.makedirs(metrics_dir, exist_ok=True)
        registry = obs_metrics.install(obs_metrics.MetricsRegistry())
    started = time.perf_counter()
    ok = True
    try:
        if registry is not None:
            with registry.profiler.phase("point"):
                return point.run()
        return point.run()
    except BaseException:
        ok = False
        raise
    finally:
        telemetry.emit(
            "point_end", run_id=run_id, span_id=span_id, point_slug=slug,
            ok=ok, elapsed_s=round(time.perf_counter() - started, 6))
        if tracer is not None:
            if previous_observer is not None:
                obs.install(previous_observer)
            else:
                obs.uninstall()
            # Written even when the point raises — a partial trace is
            # exactly what debugging a failed point needs.
            tracer.write_chrome(_trace_path(trace_dir, point),
                                extra=provenance)
        if registry is not None:
            if previous_registry is not None:
                obs_metrics.install(previous_registry)
            else:
                obs_metrics.uninstall()
            registry.write_json(metrics_path(metrics_dir, point),
                                extra={"label": point.describe(),
                                       **provenance})


def _pool_worker_main(conn) -> None:
    """Loop of one persistent fork-server worker.

    Tasks arrive as ``(seq, point, env)`` where ``env`` is the parent's
    ``REPRO_*`` environment at dispatch time; the worker mirrors it
    exactly (removing stale keys) before running the point, so a worker
    forked long ago behaves like one forked for this sweep.  Replies are
    ``(seq, ok, payload)`` — ``payload`` is the point result or the
    raised exception.  ``None`` shuts the worker down.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        seq, point, env = task
        for key in [k for k in os.environ
                    if k.startswith("REPRO_") and k not in env]:
            del os.environ[key]
        os.environ.update(env)
        ok = True
        try:
            payload: Any = _run_point(point)
        except BaseException as exc:  # transported to the parent
            ok = False
            payload = exc
        try:
            conn.send((seq, ok, payload))
        except Exception as exc:  # unpicklable payload/exception
            conn.send((seq, False,
                       RuntimeError(f"unpicklable point result: {exc}")))
    conn.close()


def pool_task_env() -> Dict[str, str]:
    """The ``REPRO_*`` environment overlay sent with every pool task, so
    long-forked workers mirror the parent's current settings."""
    return {key: value for key, value in os.environ.items()
            if key.startswith("REPRO_")}


class WorkerHandle:
    """One persistent fork-server worker: process plus duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn

    def send_task(self, seq: int, point: SweepPoint,
                  env: Dict[str, str]) -> None:
        self.conn.send((seq, point, env))


class WorkerPool:
    """Reusable fork-server pool of :func:`_pool_worker_main` processes.

    Workers persist across :func:`run_sweep` calls, grow on demand up
    to the ``jobs`` currently requested, and are torn down via
    :func:`shutdown_pool` (registered ``atexit``).  The pool no longer
    only grows: :meth:`run` trims back to the requested parallelism when
    it finishes and :meth:`shrink` retires idle workers on demand, so one
    wide sweep does not pin worker processes at the high-water mark
    forever.  :meth:`run` is the only dispatcher.
    """

    def __init__(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        # fork: workers inherit the parent's imports and sys.path, so
        # even point functions defined in scripts resolve.
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._workers: List[WorkerHandle] = []

    def __len__(self) -> int:
        return len(self._workers)

    def _spawn(self) -> WorkerHandle:
        try:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(target=_pool_worker_main,
                                            args=(child_conn,), daemon=True)
            process.start()
        except (OSError, PermissionError, ImportError, RuntimeError) as exc:
            raise PoolUnavailableError(
                f"cannot spawn worker: {type(exc).__name__}: {exc}") from exc
        child_conn.close()
        return WorkerHandle(process, parent_conn)

    def ensure(self, count: int) -> None:
        """Grow the pool to at least ``count`` live workers."""
        self._reap_dead()
        while len(self._workers) < count:
            self._workers.append(self._spawn())

    def _reap_dead(self) -> None:
        for handle in [h for h in self._workers
                       if not h.process.is_alive()]:
            self._dismiss(handle)

    def _dismiss(self, handle: WorkerHandle) -> None:
        try:
            handle.conn.send(None)
        except Exception:
            pass
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2.0)
        try:
            handle.conn.close()
        except Exception:
            pass
        try:
            self._workers.remove(handle)
        except ValueError:
            pass

    def shrink(self, target: int) -> int:
        """Retire idle workers until at most ``target`` remain; returns
        how many were retired.  Newest workers go first."""
        target = max(0, int(target))
        removed = 0
        while len(self._workers) > target:
            self._dismiss(self._workers[-1])
            removed += 1
        return removed

    def run(self, points: Sequence[SweepPoint], jobs: int,
            on_result: Optional[Callable[[int, Any], None]] = None,
            span_ids: Optional[Sequence[Optional[str]]] = None,
            ) -> List[Any]:
        """Execute ``points``; returns their payloads in point order.
        Re-raises the first failing point's exception after draining
        in-flight tasks (the pool stays reusable) — but first every
        successfully completed payload is handed to ``on_result`` (called
        as ``on_result(index, payload)`` as results arrive), so callers
        can commit finished work before the raise and a retried sweep
        never redoes completed points.  An exception from ``on_result``
        is re-raised the same way, never as
        :class:`PoolUnavailableError`: only a pipe or worker failure
        breaks the pool.

        ``span_ids`` aligns with ``points``: each task's env overlay
        carries its span so the worker's telemetry records chain with the
        parent's (see :mod:`repro.obs.telemetry`)."""
        count = min(jobs, len(points))
        env = pool_task_env()
        # A stale ambient span must never leak into workers; each task
        # gets its own (or none).
        env.pop(telemetry.ENV_SPAN_ID, None)
        spans: List[Optional[str]] = (list(span_ids) if span_ids is not None
                                      else [None] * len(points))
        out: List[Any] = [None] * len(points)
        failure: Optional[BaseException] = None
        next_index = 0
        self.ensure(count)
        idle: List[WorkerHandle] = self._workers[:count]
        busy: Dict[Any, WorkerHandle] = {}  # conn -> handle
        try:
            while True:
                while idle and next_index < len(points) and failure is None:
                    handle = idle.pop()
                    span = spans[next_index]
                    handle.send_task(
                        next_index, points[next_index],
                        env if span is None
                        else {**env, telemetry.ENV_SPAN_ID: span})
                    telemetry.emit("point_dispatched", span_id=span,
                                   point_slug=point_slug(points[next_index]),
                                   worker_pid=handle.process.pid)
                    busy[handle.conn] = handle
                    next_index += 1
                if not busy:
                    break
                for conn in mp_connection.wait(list(busy)):
                    seq, ok, payload = conn.recv()
                    idle.append(busy.pop(conn))
                    if ok:
                        out[seq] = payload
                        if on_result is not None:
                            try:
                                on_result(seq, payload)
                            except Exception as exc:
                                # The caller failed, not the pool (say, a
                                # full disk under the result cache): stop
                                # dispatching, drain, then re-raise.
                                if failure is None:
                                    failure = exc
                    else:
                        telemetry.emit(
                            "point_failed", span_id=spans[seq],
                            point_slug=point_slug(points[seq]),
                            error=f"{type(payload).__name__}: {payload}")
                        if failure is None:
                            failure = payload
        except (OSError, EOFError, BrokenPipeError) as exc:
            # A worker or pipe died: the pool is unusable.  Tear it down
            # so the next sweep starts fresh, and let run_sweep fall back
            # to serial execution of the points still missing.
            self.shutdown()
            raise PoolUnavailableError(f"worker pool failed: {exc}") from exc
        finally:
            # Resident footprint tracks the *current* request, not the
            # historical high-water mark: idle workers beyond the
            # parallelism just asked for are reaped.
            self.shrink(jobs)
        if failure is not None:
            raise failure
        return out

    def shutdown(self) -> None:
        for handle in list(self._workers):
            self._dismiss(handle)
        self._workers = []


_POOL: Optional[WorkerPool] = None


def shutdown_pool() -> None:
    """Terminate the persistent worker pool (no-op when none exists).
    A later parallel sweep transparently builds a fresh pool."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)


def _run_parallel(points: Sequence[SweepPoint], jobs: int,
                  on_result: Optional[Callable[[int, Any], None]] = None,
                  span_ids: Optional[Sequence[Optional[str]]] = None,
                  ) -> List[Any]:
    """Execute ``points`` on the persistent pool (created on first use);
    results in point order."""
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool()
    return _POOL.run(points, jobs, on_result=on_result, span_ids=span_ids)


def run_sweep(points: Sequence[SweepPoint], *, jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              trace_dir: Optional[str] = None,
              metrics_dir: Optional[str] = None,
              telemetry_dir: Optional[str] = None) -> SweepOutcome:
    """Run every point, in parallel when possible, and return a
    :class:`SweepOutcome` whose ``results`` align with ``points``.

    Points run on the persistent fork-server pool when ``jobs > 1`` and
    more than one point is pending, in this process otherwise.  If the
    pool cannot be used or dies mid-sweep, the points it did not finish
    run once more in this process (each marked ``point_retried
    reason=pool_fallback``), so no point runs more than twice.

    Args:
        points: the sweep; order is preserved in the outcome.
        jobs: worker processes (``None`` → :func:`default_jobs`;
            ``1`` → serial in-process execution).
        cache: optional result cache — cached points never reach a worker,
            and freshly computed payloads are stored back.
        trace_dir: when given, every executed point writes a Chrome-trace
            JSON into this directory (exported as ``REPRO_TRACE_DIR`` for
            the duration of the sweep so worker processes see it too).
            Cached points are not re-traced.
        metrics_dir: when given, every executed point runs under a fresh
            :class:`repro.obs.MetricsRegistry` and writes its metrics
            JSON (counters, histograms, phase profile) into this
            directory, keyed like the trace files (exported as
            ``REPRO_METRICS_DIR``).  Cached points are not re-measured.
        telemetry_dir: when given, the sweep appends causal lifecycle
            records (queued/dispatched/executed/committed per point) to
            NDJSON files in this directory (exported as
            ``REPRO_TELEMETRY_DIR``); see :mod:`repro.obs.telemetry`.
    """
    started = time.perf_counter()
    overlay = {}
    if trace_dir is not None:
        overlay["REPRO_TRACE_DIR"] = trace_dir
    if metrics_dir is not None:
        overlay["REPRO_METRICS_DIR"] = metrics_dir
    if telemetry_dir is not None:
        overlay[telemetry.ENV_TELEMETRY_DIR] = telemetry_dir
    if overlay:
        saved = {key: os.environ.get(key) for key in overlay}
        os.environ.update(overlay)
        try:
            outcome = run_sweep(points, jobs=jobs, cache=cache)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        outcome.elapsed_seconds = time.perf_counter() - started
        return outcome
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    # Every sweep gets a fresh causal run ID, exported so pool workers
    # (which mirror REPRO_* per task) stamp it into their records and
    # artifacts even when the event log itself is off.
    run_id = telemetry.new_run_id()
    saved_run = os.environ.get(telemetry.ENV_RUN_ID)
    os.environ[telemetry.ENV_RUN_ID] = run_id
    try:
        return _run_sweep_body(points, jobs, cache, run_id, started)
    except BaseException as exc:
        # A raising sweep still closes its run in the event log.
        telemetry.emit("run_end", run_id=run_id, ok=False,
                       elapsed_s=round(time.perf_counter() - started, 6),
                       error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        if saved_run is None:
            os.environ.pop(telemetry.ENV_RUN_ID, None)
        else:
            os.environ[telemetry.ENV_RUN_ID] = saved_run


def _run_sweep_body(points: Sequence[SweepPoint], jobs: int,
                    cache: Optional[ResultCache], run_id: str,
                    started: float) -> SweepOutcome:
    results: List[Any] = [None] * len(points)
    pending: List[int] = []
    cache_hits = 0
    for index, point in enumerate(points):
        if cache is not None:
            hit = cache.get(point.experiment, point.params)
            if not ResultCache.is_missing(hit):
                results[index] = hit
                cache_hits += 1
                telemetry.emit("point_cached", run_id=run_id,
                               point_slug=point_slug(point))
                continue
        pending.append(index)

    parallel = False
    fallback_reason: Optional[str] = None
    telemetry.emit("run_start", run_id=run_id, points=len(points),
                   pending=len(pending), cache_hits=cache_hits, jobs=jobs)

    if pending:
        todo = [points[i] for i in pending]
        completed = [False] * len(todo)
        # One span per executed point: its whole lifecycle — here and in
        # whichever process runs it — chains under this ID.
        spans = [telemetry.new_span_id() for _ in todo]
        for pos, point in enumerate(todo):
            telemetry.emit("point_queued", run_id=run_id, span_id=spans[pos],
                           point_slug=point_slug(point),
                           experiment=point.experiment)

        def _commit(pos: int, payload: Any) -> None:
            # Results are committed (and cached) as they arrive, not after
            # the whole sweep: when one point fails, everything that
            # finished stays finished and a retried sweep never redoes it.
            index = pending[pos]
            results[index] = payload
            completed[pos] = True
            if cache is not None:
                cache.put(points[index].experiment, points[index].params,
                          payload)
            telemetry.emit("point_committed", run_id=run_id,
                           span_id=spans[pos],
                           point_slug=point_slug(points[index]))

        def _run_serial_committing(positions: Sequence[int]) -> None:
            for pos in positions:
                telemetry.emit("point_dispatched", run_id=run_id,
                               span_id=spans[pos],
                               point_slug=point_slug(todo[pos]),
                               worker_pid=os.getpid())
                try:
                    payload = _run_point(todo[pos], run_id=run_id,
                                         span_id=spans[pos])
                except BaseException as exc:
                    telemetry.emit(
                        "point_failed", run_id=run_id, span_id=spans[pos],
                        point_slug=point_slug(todo[pos]),
                        error=f"{type(exc).__name__}: {exc}")
                    raise
                _commit(pos, payload)

        if jobs > 1 and len(todo) > 1:
            try:
                _run_parallel(todo, jobs, on_result=_commit, span_ids=spans)
                parallel = True
            except PoolUnavailableError as exc:
                # Worker processes unavailable (restricted sandbox, missing
                # semaphores, mid-sweep pool death, ...): identical
                # results, just serially — and only for the points that
                # did not already complete in a worker.  A *point* raising
                # is not an infrastructure failure and propagates instead,
                # whatever its exception type.
                fallback_reason = f"{type(exc).__name__}: {exc}"
                remaining = [pos for pos, done in enumerate(completed)
                             if not done]
                for pos in remaining:
                    telemetry.emit("point_retried", run_id=run_id,
                                   span_id=spans[pos],
                                   point_slug=point_slug(todo[pos]),
                                   reason="pool_fallback")
                _run_serial_committing(remaining)
        else:
            _run_serial_committing(range(len(todo)))

    elapsed = time.perf_counter() - started
    telemetry.emit("run_end", run_id=run_id, ok=True,
                   elapsed_s=round(elapsed, 6), parallel=parallel,
                   fallback_reason=fallback_reason)
    return SweepOutcome(
        results=results,
        jobs=jobs,
        parallel=parallel,
        cache_hits=cache_hits,
        cache_misses=len(pending),
        elapsed_seconds=elapsed,
        fallback_reason=fallback_reason,
        points=tuple(points),
        run_id=run_id,
    )
