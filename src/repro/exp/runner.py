"""Parallel sweep runner.

Fans independent :class:`~repro.exp.sweep.SweepPoint`\\ s out across
worker processes.  Each point constructs its own ``System`` inside the
worker, and every stochastic component of the simulator is seeded from
its config, so parallel results are bit-identical to serial execution —
the runner only changes wall-clock time, never numbers.

The workers belong to one :class:`concurrent.futures.ProcessPoolExecutor`
on the fork context, kept between sweeps, so only the first parallel
sweep pays for process start-up.  Because workers fork *before* later
environment changes, every task carries the parent's ``REPRO_*``
environment at dispatch time — sanitizer flags and the like behave
exactly as if the worker had been forked fresh.

Degradation is graceful by design: ``jobs=1``, a single point, or
an environment where worker processes cannot be started (sandboxes without
semaphores, exotic interpreters) all run the exact same point functions
in this process; if a worker dies, the pool is shut down and the points
it did not finish run here.

Observability survives the fan-out: when ``REPRO_TRACE_DIR`` is set
(directly, or via ``run_sweep(trace_dir=...)``, which exports it around
the sweep), every point — serial or in a worker process — runs under a
fresh :class:`repro.obs.Tracer` and writes its Chrome-trace JSON into
that directory, named after the point's label (see :func:`trace_path`).
``repro report`` joins these files with the sweep payloads into one run
report.
"""

from __future__ import annotations

import atexit
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro import obs
from repro.exp.sweep import SweepPoint


class PoolUnavailableError(RuntimeError):
    """Worker processes cannot be started, or one died mid-sweep.

    An *infrastructure* failure, distinct from a sweep point raising: the
    runner falls back to serial in-process execution on this error, while
    a point's own exception propagates to the caller."""


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
    #: Always 0, like ``warm_hits``: every point runs, and nothing is
    #: reused between points or sweeps.  Both fields stay because
    #: benchmark harnesses read them to prove a run was cold.
    cache_hits: int = 0
    elapsed_seconds: float = 0.0
    fallback_reason: Optional[str] = None
    warm_hits: int = 0
    points: Sequence[SweepPoint] = field(default_factory=tuple)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Any:
        return self.results[index]


def point_slug(point: SweepPoint) -> str:
    """Filesystem-safe name for a point's trace file (see
    :func:`trace_path`)."""
    slug = re.sub(r"[^A-Za-z0-9._=-]+", "_", point.describe()).strip("_")
    return slug[:120] or "point"


def trace_path(trace_dir: str, point: SweepPoint) -> str:
    """Where a point's Chrome-trace JSON lands under ``trace_dir``; run
    reports join traces to points through it."""
    return os.path.join(trace_dir, f"{point_slug(point)}.trace.json")


def _run_point(point: SweepPoint) -> Any:
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir:
        return point.run()
    os.makedirs(trace_dir, exist_ok=True)
    # Per-point tracer, installed process-globally so the Systems and
    # schedulers the point builds internally pick it up.  Works
    # identically in the parent (serial path) and in pool workers, which
    # mirror the parent's REPRO_* environment per task.
    tracer = obs.Tracer()
    previous = obs.current_observer()
    obs.install(tracer)
    started = time.perf_counter()
    try:
        return point.run()
    finally:
        wall_s = time.perf_counter() - started
        if previous is not None:
            obs.install(previous)
        else:
            obs.uninstall()
        # Written even when the point raises — a partial trace is exactly
        # what debugging a failed point needs.  The provenance keeps files
        # that two sweeps, or two pool workers, write into one directory
        # distinguishable by process, not just by filename.
        tracer.write_chrome(trace_path(trace_dir, point),
                            extra={"pid": os.getpid(),
                                   "point_slug": point_slug(point),
                                   "wall_s": round(wall_s, 6)})


def _pool_task(point: SweepPoint, env: Dict[str, str]) -> Any:
    """Run ``point`` in a pool worker.  ``env`` is the parent's ``REPRO_*``
    environment at dispatch time; the worker mirrors it exactly (removing
    stale keys) first, so a worker forked long ago behaves like one forked
    for this sweep."""
    for key in [k for k in os.environ
                if k.startswith("REPRO_") and k not in env]:
        del os.environ[key]
    os.environ.update(env)
    return _run_point(point)


#: The reused ``ProcessPoolExecutor`` and its worker count.
_POOL: Optional[Any] = None
_POOL_WORKERS = 0


def shutdown_pool() -> None:
    """Stop the reused worker pool (no-op when none exists).  A later
    parallel sweep transparently starts a fresh one."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL, None
        pool.shutdown(wait=True, cancel_futures=True)


# Without this, an executor still alive at interpreter teardown is
# collected after its modules, and its weakref callback raises.
atexit.register(shutdown_pool)


def _pool(workers: int, jobs: int) -> Any:
    """The reused executor while its size lies in ``[workers, jobs]``;
    otherwise a fresh one with ``workers`` processes."""
    global _POOL, _POOL_WORKERS
    if _POOL is None or not workers <= _POOL_WORKERS <= jobs:
        shutdown_pool()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: workers inherit the parent's imports and sys.path, so
        # even point functions defined in scripts resolve.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        _POOL = ProcessPoolExecutor(workers, mp_context=context)
        _POOL_WORKERS = workers
    return _POOL


def _run_parallel(points: Sequence[SweepPoint], jobs: int,
                  on_result: Callable[[int, Any], None]) -> None:
    """Execute ``points`` on the reused pool, handing each payload to
    ``on_result(index, payload)`` as it arrives.

    When a point raises, the points not yet started are cancelled, the
    running ones finish, and then the first exception is re-raised; the
    pool stays usable.  Raises :class:`PoolUnavailableError`, after
    shutting the pool down, when workers cannot start or one dies; the
    payloads handed over by then are the points the pool finished."""
    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    env = {key: value for key, value in os.environ.items()
           if key.startswith("REPRO_")}
    try:
        pool = _pool(min(jobs, len(points)), jobs)
        futures = {pool.submit(_pool_task, point, env): index
                   for index, point in enumerate(points)}
    except (OSError, ImportError, RuntimeError) as exc:
        # RuntimeError covers a pool broken during submission and a
        # thread that cannot start.
        shutdown_pool()
        raise PoolUnavailableError(
            f"cannot start workers: {type(exc).__name__}: {exc}") from exc
    failure: Optional[Exception] = None
    try:
        for future in as_completed(futures):
            if future.cancelled():
                continue
            try:
                on_result(futures[future], future.result())
            except BrokenProcessPool:
                raise
            except Exception as exc:
                if failure is None:
                    failure = exc
                    for other in futures:
                        other.cancel()
    except BrokenProcessPool as exc:
        shutdown_pool()
        raise PoolUnavailableError(f"a worker died: {exc}") from exc
    if failure is not None:
        raise failure


def run_sweep(points: Sequence[SweepPoint], *, jobs: Optional[int] = None,
              cache: None = None,
              trace_dir: Optional[str] = None) -> SweepOutcome:
    """Run every point, in parallel when possible, and return a
    :class:`SweepOutcome` whose ``results`` align with ``points``.

    Points run on the reused worker pool when ``jobs > 1`` and more than
    one point is given, in this process otherwise.  If the pool cannot
    start or a worker dies mid-sweep, the points it did not finish run
    once more in this process, so no point runs more than twice.

    Args:
        points: the sweep; order is preserved in the outcome.
        jobs: worker processes (``None`` → :func:`default_jobs`;
            ``1`` → serial in-process execution).
        cache: ignored; accepted because benchmark harnesses pass
            ``cache=None`` to ask for a cold run, which every run is.
        trace_dir: when given, every point writes a Chrome-trace JSON,
            stamped with the point's wall time, into this directory
            (exported, made absolute, as ``REPRO_TRACE_DIR`` for the
            duration of the sweep so worker processes see it too).
    """
    started = time.perf_counter()
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    # Absolute, whether given here or already in the environment: pool
    # workers keep the working directory they were forked in, which need
    # not be this process's current one.
    saved = os.environ.get("REPRO_TRACE_DIR")
    trace_dir = saved if trace_dir is None else trace_dir
    if trace_dir:
        os.environ["REPRO_TRACE_DIR"] = os.path.abspath(trace_dir)
    try:
        finished: Dict[int, Any] = {}
        parallel = False
        fallback_reason: Optional[str] = None
        if jobs > 1 and len(points) > 1:
            try:
                _run_parallel(points, jobs, finished.__setitem__)
                parallel = True
            except PoolUnavailableError as exc:
                # Identical results, just serially — and only for the
                # points that did not already complete in a worker.  A
                # *point* raising is not an infrastructure failure and
                # propagates instead, whatever its exception type.
                fallback_reason = f"{type(exc).__name__}: {exc}"
        results = [finished[index] if index in finished else _run_point(point)
                   for index, point in enumerate(points)]
    finally:
        if saved is None:
            os.environ.pop("REPRO_TRACE_DIR", None)
        else:
            os.environ["REPRO_TRACE_DIR"] = saved
    return SweepOutcome(
        results=results,
        jobs=jobs,
        parallel=parallel,
        elapsed_seconds=time.perf_counter() - started,
        fallback_reason=fallback_reason,
        points=tuple(points),
    )
