"""Async job scheduler: fair-share, deduplicating dispatch onto the pool.

This is the multi-tenant heart of ``repro serve``.  Many clients submit
sweeps concurrently; the scheduler decomposes each into point tasks and
serves them through the same hierarchy ad-hoc sweeps use, now shared:

- **Result cache** — a point whose payload is already in the
  :class:`repro.exp.cache.ResultCache` (same content-hash keys) is
  answered immediately, no execution.
- **In-flight dedup** — identical points (by :func:`repro.serve.protocol.
  point_key`) queued or running for *any* client are executed once; every
  subscriber receives the payload when it lands.  A duplicate submission
  therefore performs zero extra point executions.
- **Fork-server pool** — executions dispatch onto the persistent
  :class:`repro.exp.runner.WorkerPool` (shared with ``run_sweep``), whose
  workers keep their pristine-system pools across jobs and clients.

Scheduling is per-client fair share with priorities: when a slot frees,
the client with the fewest running points goes first (ties to the least
recently served, so a new tenant is never starved behind an earlier bulk
submission), and within a client higher ``priority`` then FIFO order
wins.

Execution is resilient: a worker that dies mid-request is retired and the
point retried on a fresh worker; with no worker processes at all (or
after repeated deaths) the point runs in the daemon process via the
default executor — same numbers, just slower.  A client that disconnects
has its queued points cancelled (unless another client subscribed to
them); its in-flight points finish and still populate the caches.

The scheduler keeps a *local* :class:`~repro.obs.metrics.MetricsRegistry`
rather than installing a process-global one: pool workers fork from the
daemon, and a globally installed registry would ride along and disable
their pristine-system pooling (see :func:`repro.exp.warmstore.
pristine_system`).  The metrics endpoint merges this local registry with
:func:`repro.obs.metrics.snapshot` of whatever the process has installed.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exp import warmstore
from repro.exp.cache import ResultCache
from repro.exp.runner import (PoolUnavailableError, WorkerPool, _run_point,
                              default_jobs, get_pool, point_slug,
                              pool_task_env)
from repro.exp.sweep import SweepPoint
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import FleetHealth
from repro.serve.protocol import point_key

#: Idle workers a quiescent daemon keeps alive (warm, ready for the next
#: burst); everything beyond this is reaped once the queue drains.
DEFAULT_IDLE_WORKERS = 1


class Job:
    """One submitted sweep: per-point results plus streaming callbacks."""

    def __init__(self, job_id: str, client_id: str,
                 points: Sequence[SweepPoint], priority: int,
                 emit: Optional[Callable[[Dict[str, Any]], None]]) -> None:
        self.job_id = job_id
        self.client_id = client_id
        self.points = list(points)
        self.priority = int(priority)
        #: Causal run ID for this job's telemetry records (one per
        #: submission, like ``run_sweep`` mints one per sweep).
        self.run_id = telemetry.new_run_id()
        self._emit = emit
        self.results: List[Any] = [None] * len(points)
        self.sources: List[Optional[str]] = [None] * len(points)
        self.errors: List[Optional[str]] = [None] * len(points)
        self.remaining = len(points)
        self.warm_hits = 0
        self.warm_misses = 0
        self.cancelled = False
        self.started = time.perf_counter()
        self.elapsed_seconds = 0.0
        self.done = asyncio.Event()

    @property
    def ok(self) -> bool:
        return not self.cancelled and not any(self.errors)

    def emit(self, event: Dict[str, Any]) -> None:
        if self._emit is not None and not self.cancelled:
            self._emit(event)

    def describe(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "client": self.client_id,
            "points": len(self.points),
            "remaining": self.remaining,
            "priority": self.priority,
            "cancelled": self.cancelled,
        }


class _Task:
    """One deduplicated unit of execution; fans out to subscribers."""

    __slots__ = ("key", "point", "priority", "order", "owner", "subscribers",
                 "span_id", "run_id")

    def __init__(self, key: str, point: SweepPoint, priority: int,
                 order: int, owner: str,
                 subscriber: Tuple[Job, int]) -> None:
        self.key = key
        self.point = point
        self.priority = priority
        self.order = order
        self.owner = owner  # client whose fair-share slot this occupies
        self.subscribers: List[Tuple[Job, int]] = [subscriber]
        # One execution span regardless of how many jobs subscribe: a
        # deduped duplicate chains into this same span.
        self.span_id = telemetry.new_span_id()
        self.run_id = subscriber[0].run_id


class ServeScheduler:
    """Schedules submitted sweeps onto the shared execution hierarchy.

    Args:
        jobs: maximum concurrently executing points (default
            :func:`repro.exp.runner.default_jobs`).
        cache: optional :class:`ResultCache` — consulted before queueing
            and populated after every successful execution.
        pool: the fork-server pool to dispatch on (default: the
            process-wide pool shared with ``run_sweep``).
        use_pool: ``False`` forces in-process execution via the default
            executor — deterministic for tests, and the automatic
            degradation mode where worker processes cannot spawn.
        idle_workers: pool size the daemon shrinks to when fully idle.
    """

    def __init__(self, *, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 pool: Optional[WorkerPool] = None,
                 use_pool: bool = True,
                 idle_workers: int = DEFAULT_IDLE_WORKERS) -> None:
        self.max_jobs = max(1, int(jobs)) if jobs else default_jobs()
        self.cache = cache
        self.use_pool = use_pool
        self._pool = pool
        self.idle_workers = max(0, int(idle_workers))
        self.registry = MetricsRegistry()
        #: Worker health model fed by every dispatch/completion; its
        #: snapshot rides the metrics endpoint and ``repro top``.
        self.health = FleetHealth()
        self._queued: Dict[str, _Task] = {}
        self._running: Dict[str, _Task] = {}
        self._active = 0
        self._running_per_client: Dict[str, int] = {}
        self._last_served: Dict[str, int] = {}
        self._serve_tick = itertools.count(1)
        self._order = itertools.count()
        self._job_ids = itertools.count(1)
        self._jobs: Dict[str, Job] = {}
        self._wake = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._stopping = False

    @property
    def pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = get_pool()
        return self._pool

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop dispatching; queued tasks are dropped, running ones are
        awaited so their results still reach subscribers and caches."""
        self._stopping = True
        for task in self._queued.values():
            telemetry.emit("point_cancelled", run_id=task.run_id,
                           span_id=task.span_id,
                           point_slug=point_slug(task.point),
                           reason="scheduler_stopping")
        self._queued.clear()
        while self._active:
            self._wake.clear()
            await self._wake.wait()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None

    # ------------------------------------------------------------------
    # Submission / cancellation
    # ------------------------------------------------------------------

    async def submit(self, client_id: str, points: Sequence[SweepPoint],
                     priority: int = 0,
                     emit: Optional[Callable[[Dict[str, Any]], None]] = None,
                     tag: Optional[str] = None) -> Job:
        """Register a sweep for ``client_id``; returns its :class:`Job`
        (await ``job.done.wait()`` for completion).  Each point is served
        from the result cache, subscribed to an identical in-flight
        execution, or queued — in that order."""
        job = Job(f"job-{next(self._job_ids)}", client_id, points, priority,
                  emit)
        self._jobs[job.job_id] = job
        self.registry.counter("serve.jobs.submitted").inc()
        telemetry.emit("job_start", run_id=job.run_id, job_id=job.job_id,
                       client=client_id, points=len(points),
                       priority=job.priority)
        accepted: Dict[str, Any] = {"event": "accepted",
                                    "job_id": job.job_id,
                                    "run_id": job.run_id,
                                    "points": len(points), "protocol": 1}
        if tag is not None:
            accepted["id"] = tag
        job.emit(accepted)
        for index, point in enumerate(points):
            if self.cache is not None:
                hit = self.cache.get(point.experiment, point.params)
                if not ResultCache.is_missing(hit):
                    self.registry.counter("serve.points.cache_hits").inc()
                    telemetry.emit("point_cached", run_id=job.run_id,
                                   point_slug=point_slug(point))
                    self._deliver(job, index, hit, "cache", 0.0)
                    continue
            key = point_key(point)
            task = self._running.get(key) or self._queued.get(key)
            if task is not None:
                task.subscribers.append((job, index))
                self.registry.counter("serve.points.deduped").inc()
                # The duplicate's own run chains into the one execution
                # span — this record is the join between them.
                telemetry.emit("point_deduped", run_id=job.run_id,
                               span_id=task.span_id, job_id=job.job_id,
                               owner_run_id=task.run_id,
                               point_slug=point_slug(point))
                continue
            task = _Task(key, point, priority, next(self._order), client_id,
                         (job, index))
            self._queued[key] = task
            self.registry.counter("serve.points.queued").inc()
            telemetry.emit("point_queued", run_id=task.run_id,
                           span_id=task.span_id, client=client_id,
                           point_slug=point_slug(point),
                           experiment=point.experiment)
        self._wake.set()
        return job

    def cancel_client(self, client_id: str) -> int:
        """Cancel every unfinished job of ``client_id``.  Queued points
        are dropped unless another client subscribed; running points
        finish (their payloads still land in the caches) but deliver
        nothing to the cancelled jobs.  Returns dropped-point count."""
        for job in self._jobs.values():
            if job.client_id == client_id and not job.done.is_set():
                job.cancelled = True
                job.elapsed_seconds = time.perf_counter() - job.started
                job.done.set()
        dropped = 0
        for key, task in list(self._queued.items()):
            task.subscribers = [(job, index) for job, index in
                                task.subscribers if not job.cancelled]
            if not task.subscribers:
                del self._queued[key]
                dropped += 1
                telemetry.emit("point_cancelled", run_id=task.run_id,
                               span_id=task.span_id,
                               point_slug=point_slug(task.point),
                               reason="client_disconnected")
        if dropped:
            self.registry.counter("serve.points.cancelled").inc(dropped)
            telemetry.log("info", "serve", "client cancelled; queued points "
                          "dropped", client=client_id, dropped=dropped)
        self._wake.set()
        return dropped

    def cancel_job(self, job_id: str) -> bool:
        job = self._jobs.get(job_id)
        if job is None or job.done.is_set():
            return False
        job.cancelled = True
        job.elapsed_seconds = time.perf_counter() - job.started
        job.done.set()
        for key, task in list(self._queued.items()):
            task.subscribers = [(j, i) for j, i in task.subscribers
                                if j is not job]
            if not task.subscribers:
                del self._queued[key]
                self.registry.counter("serve.points.cancelled").inc()
                telemetry.emit("point_cancelled", run_id=task.run_id,
                               span_id=task.span_id,
                               point_slug=point_slug(task.point),
                               reason="job_cancelled")
        self._wake.set()
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while (self._queued and self._active < self.max_jobs
                   and not self._stopping):
                task = self._pick_next()
                del self._queued[task.key]
                self._running[task.key] = task
                self._active += 1
                owner = task.owner
                self._running_per_client[owner] = (
                    self._running_per_client.get(owner, 0) + 1)
                self._last_served[owner] = next(self._serve_tick)
                asyncio.ensure_future(self._execute(task))
            if (not self._queued and not self._active and self.use_pool
                    and not self._stopping):
                # Fully idle: resident memory tracks load, not history.
                self.pool.shrink(self.idle_workers)

    def _pick_next(self) -> _Task:
        """Fair share with priorities: among clients with queued work,
        the one with the fewest running points goes first, ties broken by
        least-recently-served (a new tenant is never starved behind an
        earlier bulk submission); within a client, highest ``priority``
        then FIFO order wins."""
        best_per_client: Dict[str, _Task] = {}
        for task in self._queued.values():
            best = best_per_client.get(task.owner)
            if best is None or (-task.priority, task.order) < (
                    -best.priority, best.order):
                best_per_client[task.owner] = task
        client = min(
            best_per_client,
            key=lambda c: (self._running_per_client.get(c, 0),
                           self._last_served.get(c, 0),
                           best_per_client[c].order))
        return best_per_client[client]

    async def _execute(self, task: _Task) -> None:
        started = time.perf_counter()
        payload: Any = None
        error: Optional[str] = None
        source = "executed"
        warm_delta = {"hits": 0, "misses": 0}
        try:
            payload, warm_delta, source = await self._run_task(task)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # the point itself failed
            error = f"{type(exc).__name__}: {exc}"
            self.registry.counter("serve.points.failed").inc()
            telemetry.log("error", "serve", "point failed",
                          span_id=task.span_id,
                          point=point_slug(task.point), error=error)
        finally:
            self._running.pop(task.key, None)
            self._active -= 1
            owner = task.owner
            left = self._running_per_client.get(owner, 1) - 1
            if left:
                self._running_per_client[owner] = left
            else:
                self._running_per_client.pop(owner, None)
            self._wake.set()
        elapsed = time.perf_counter() - started
        if error is None:
            self.registry.counter("serve.points.executed").inc()
            self.registry.histogram("serve.point_seconds",
                                    edges=(0.01, 0.05, 0.1, 0.5, 1, 2, 5,
                                           10, 30, 60)).observe(elapsed)
            if self.cache is not None:
                try:
                    self.cache.put(task.point.experiment, task.point.params,
                                   payload)
                except (TypeError, ValueError, OSError):
                    pass  # non-JSON payloads stay in-flight-dedup only
            telemetry.emit("point_committed", run_id=task.run_id,
                           span_id=task.span_id,
                           point_slug=point_slug(task.point), source=source,
                           elapsed_s=round(elapsed, 6),
                           subscribers=len(task.subscribers))
        else:
            telemetry.emit("point_failed", run_id=task.run_id,
                           span_id=task.span_id,
                           point_slug=point_slug(task.point), error=error)
        for job, index in task.subscribers:
            if job.cancelled:
                continue
            job.warm_hits += warm_delta["hits"]
            job.warm_misses += warm_delta["misses"]
            self._deliver(job, index, payload, source, elapsed, error=error,
                          span_id=task.span_id)

    def _deliver(self, job: Job, index: int, payload: Any, source: str,
                 elapsed: float, error: Optional[str] = None,
                 span_id: Optional[str] = None) -> None:
        job.results[index] = payload
        job.sources[index] = source
        job.errors[index] = error
        job.remaining -= 1
        event = {"event": "point", "job_id": job.job_id, "index": index,
                 "source": source, "payload": payload,
                 "elapsed_s": round(elapsed, 6)}
        if span_id is not None:
            event["span_id"] = span_id
        if error is not None:
            event["error"] = error
        job.emit(event)
        if job.remaining == 0:
            job.elapsed_seconds = time.perf_counter() - job.started
            telemetry.emit("job_end", run_id=job.run_id, job_id=job.job_id,
                           ok=job.ok,
                           elapsed_s=round(job.elapsed_seconds, 6))
            job.emit({
                "event": "done", "job_id": job.job_id, "ok": job.ok,
                "run_id": job.run_id,
                "results": job.results, "sources": job.sources,
                "errors": ([e for e in job.errors if e]
                           if not job.ok else []),
                "warm_hits": job.warm_hits, "warm_misses": job.warm_misses,
                "elapsed_s": round(job.elapsed_seconds, 6),
            })
            job.done.set()

    # ------------------------------------------------------------------
    # Point execution (pool with retry, inline fallback)
    # ------------------------------------------------------------------

    async def _run_task(self, task: _Task,
                        ) -> Tuple[Any, Dict[str, int], str]:
        slug = point_slug(task.point)
        if self.use_pool:
            # A worker that dies mid-request (OOM-killed, crashed) is
            # retired and the point retried once on a fresh worker; a
            # point that *raises* is not retried — its exception is the
            # result.
            for _attempt in range(2):
                try:
                    handle = self.pool.checkout()
                except PoolUnavailableError:
                    break  # no worker processes here: run inline
                worker_pid = handle.process.pid
                self.health.record_dispatch(worker_pid, task.span_id,
                                            point_slug=slug)
                telemetry.emit("point_dispatched", run_id=task.run_id,
                               span_id=task.span_id, point_slug=slug,
                               worker_pid=worker_pid, attempt=_attempt)
                try:
                    payload, delta = await self._run_on_handle(handle, task)
                except (EOFError, OSError, BrokenPipeError) as exc:
                    self.health.record_done(worker_pid, task.span_id,
                                            ok=False)
                    self.pool.retire(handle)
                    self.registry.counter("serve.workers.died").inc()
                    telemetry.emit("point_retried", run_id=task.run_id,
                                   span_id=task.span_id, point_slug=slug,
                                   worker_pid=worker_pid,
                                   reason="worker_died")
                    telemetry.log("warning", "serve",
                                  "worker died mid-point; retrying",
                                  worker_pid=worker_pid, point=slug,
                                  error=f"{type(exc).__name__}: {exc}")
                    continue
                except BaseException:
                    self.health.record_done(worker_pid, task.span_id,
                                            ok=False)
                    self.pool.checkin(handle)
                    raise
                self.health.record_done(worker_pid, task.span_id, ok=True)
                self.pool.checkin(handle)
                self._record_warm(delta)
                return payload, delta, "executed"
        self.registry.counter("serve.points.inline").inc()
        # Inline degradation: the daemon process is the worker.  Causal
        # IDs pass as arguments (not env) so concurrent inline points
        # can't trample each other's ambient span.
        inline_pid = os.getpid()
        self.health.record_dispatch(inline_pid, task.span_id,
                                    point_slug=slug)
        telemetry.emit("point_dispatched", run_id=task.run_id,
                       span_id=task.span_id, point_slug=slug,
                       worker_pid=inline_pid, inline=True)
        loop = asyncio.get_running_loop()
        before = warmstore.counters()
        try:
            payload = await loop.run_in_executor(
                None, _run_point, task.point, task.run_id, task.span_id)
        except BaseException:
            self.health.record_done(inline_pid, task.span_id, ok=False)
            raise
        self.health.record_done(inline_pid, task.span_id, ok=True)
        after = warmstore.counters()
        delta = {key: after[key] - before[key] for key in after}
        return payload, delta, "inline"

    async def _run_on_handle(self, handle: Any, task: _Task,
                             ) -> Tuple[Any, Dict[str, int]]:
        """Send one task to a leased worker and await its reply without
        blocking the event loop (the pipe rides ``loop.add_reader``)."""
        loop = asyncio.get_running_loop()
        env = pool_task_env()
        env[telemetry.ENV_RUN_ID] = task.run_id
        env[telemetry.ENV_SPAN_ID] = task.span_id
        handle.send_task(0, task.point, env)
        future: asyncio.Future = loop.create_future()

        def _ready() -> None:
            if future.done():
                return
            try:
                future.set_result(handle.recv())
            except BaseException as exc:  # EOFError: worker died
                future.set_exception(exc)

        fd = handle.fileno()
        loop.add_reader(fd, _ready)
        try:
            _seq, ok, payload, warm_delta = await future
        finally:
            loop.remove_reader(fd)
        if not ok:
            raise payload
        return payload, warm_delta

    def _record_warm(self, delta: Dict[str, int]) -> None:
        if delta.get("hits"):
            self.registry.counter("warmstore.hits").inc(delta["hits"])
        if delta.get("misses"):
            self.registry.counter("warmstore.misses").inc(delta["misses"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _health_snapshot(self) -> Dict[str, Any]:
        """Health view for the metrics endpoint."""
        snapshot = self.health.snapshot()
        # Heartbeat gauges mirror the headline numbers into the registry
        # so a plain metrics scrape sees fleet health without parsing the
        # nested snapshot.
        self.registry.gauge("serve.workers.known").set(
            len(snapshot["workers"]))
        self.registry.gauge("serve.points.in_flight").set(
            len(snapshot["in_flight"]))
        return snapshot

    def stats(self) -> Dict[str, Any]:
        jobs_done = sum(1 for job in self._jobs.values()
                        if job.done.is_set())
        queued_per_client: Dict[str, int] = {}
        for task in self._queued.values():
            queued_per_client[task.owner] = (
                queued_per_client.get(task.owner, 0) + 1)
        return {
            "max_jobs": self.max_jobs,
            "queued_points": len(self._queued),
            "running_points": self._active,
            "jobs_total": len(self._jobs),
            "jobs_done": jobs_done,
            "clients_running": dict(self._running_per_client),
            "clients_queued": queued_per_client,
            "pool_workers": len(self._pool) if self._pool is not None else 0,
            "result_cache": (self.cache.stats()
                             if self.cache is not None else None),
            "counters": {name: counter.value for name, counter in
                         sorted(self.registry.counters.items())},
            "workers": self._health_snapshot(),
        }
