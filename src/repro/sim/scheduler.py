"""Virtual-time cooperative scheduler.

Threads are generator functions that receive a :class:`Context` and yield
*commands*.  The scheduler always resumes the runnable thread with the
smallest local clock, so shared simulated hardware (banks, caches) observes
accesses in global time order.

Yieldable commands
------------------

- ``None`` — checkpoint: reschedule me; lets lower-time threads run first.
  Threads must checkpoint around shared-hardware accesses.
- ``semaphore.acquire()`` — block until a token is available; the thread
  resumes at ``max(own time, token release time)``.
- ``semaphore.release()`` — deposit a token stamped with the current time.
- ``barrier.wait()`` — rendezvous; all parties resume at the max arrival time.

Example
-------

>>> sched = Scheduler()
>>> log = []
>>> def worker(ctx):
...     ctx.advance(5)
...     yield None
...     log.append((ctx.name, ctx.now))
>>> _ = sched.spawn(worker, name="w0")
>>> _ = sched.spawn(worker, name="w1")
>>> sched.run()
>>> sorted(log)
[('w0', 5), ('w1', 5)]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Iterator, List, Optional, Tuple

from repro.obs import current_observer


class DeadlockError(RuntimeError):
    """Raised when no thread is runnable but blocked threads remain."""


class Context:
    """Per-thread simulation context.

    Tracks the thread's local virtual clock (``now``, in CPU cycles) and any
    outstanding asynchronous completions (e.g. in-flight PEI operations that
    a later memory fence must wait for).
    """

    __slots__ = ("name", "now", "_pending", "scheduler", "thread_id")

    def __init__(self, name: str, thread_id: int, scheduler: "Scheduler") -> None:
        self.name = name
        self.thread_id = thread_id
        self.scheduler = scheduler
        self.now: int = 0
        self._pending: List[int] = []

    def advance(self, cycles: int) -> None:
        """Move this thread's clock forward by ``cycles`` (must be >= 0)."""
        if cycles < 0:
            raise ValueError(f"cannot advance by negative cycles: {cycles}")
        self.now += cycles

    def advance_to(self, time: int) -> None:
        """Move this thread's clock forward to ``time`` if it is later."""
        if time > self.now:
            self.now = time

    def track_completion(self, finish_time: int) -> None:
        """Record an asynchronous operation completing at ``finish_time``."""
        self._pending.append(finish_time)

    def fence(self) -> None:
        """Memory fence: wait for all tracked asynchronous completions."""
        if self._pending:
            self.advance_to(max(self._pending))
            self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Context(name={self.name!r}, now={self.now})"


class _Acquire:
    __slots__ = ("semaphore",)

    def __init__(self, semaphore: "Semaphore") -> None:
        self.semaphore = semaphore


class _Release:
    __slots__ = ("semaphore",)

    def __init__(self, semaphore: "Semaphore") -> None:
        self.semaphore = semaphore


class _BarrierWait:
    __slots__ = ("barrier",)

    def __init__(self, barrier: "Barrier") -> None:
        self.barrier = barrier


class Semaphore:
    """Counting semaphore whose tokens carry virtual timestamps.

    A token released at time ``t`` cannot be consumed "in the past": the
    acquiring thread resumes at ``max(acquire time, t)``.  This models the
    signal-propagation behaviour of the POSIX semaphores the paper's attacks
    use for sender/receiver pipelining (§4.1).
    """

    def __init__(self, initial: int = 0, name: str = "sem") -> None:
        if initial < 0:
            raise ValueError("initial semaphore value must be >= 0")
        self.name = name
        self._tokens: Deque[int] = deque([0] * initial)
        self._waiters: Deque["SimThread"] = deque()

    @property
    def value(self) -> int:
        """Number of currently available tokens."""
        return len(self._tokens)

    def acquire(self) -> _Acquire:
        """Return a command that blocks until a token is available."""
        return _Acquire(self)

    def release(self) -> _Release:
        """Return a command that deposits one token."""
        return _Release(self)


class Barrier:
    """Rendezvous barrier: all parties resume at the latest arrival time."""

    def __init__(self, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.name = name
        self.parties = parties
        self._arrived: List["SimThread"] = []

    def wait(self) -> _BarrierWait:
        """Return a command that blocks until all parties have arrived."""
        return _BarrierWait(self)


class SimThread:
    """A spawned simulated thread (generator + context + liveness state)."""

    __slots__ = ("ctx", "generator", "finished", "result", "_seq")

    def __init__(self, ctx: Context, generator: Generator[Any, None, None], seq: int) -> None:
        self.ctx = ctx
        self.generator = generator
        self.finished = False
        self.result: Any = None
        self._seq = seq

    @property
    def name(self) -> str:
        return self.ctx.name

    @property
    def now(self) -> int:
        return self.ctx.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else f"t={self.ctx.now}"
        return f"SimThread({self.ctx.name}, {state})"


ThreadBody = Callable[..., Generator[Any, None, Any]]


class Scheduler:
    """Runs simulated threads in virtual-time order until all complete.

    The run loop has a *run-to-block fast path*: when the thread that just
    yielded ``None`` (a checkpoint) is still globally minimal — its
    ``(now, seq)`` orders before the heap head's key — it is resumed inline
    instead of being pushed and immediately re-popped.  Checkpoint-dense
    thread bodies (the attacks yield around every shared-hardware access)
    skip two heap operations per checkpoint this way.  Virtual-time order
    is unchanged: the fast path fires exactly when the heap would have
    returned the same thread.  ``fast_path=False`` forces the heap-only
    slow path (used by the equivalence tests).
    """

    _instances = 0

    def __init__(self, fast_path: bool = True, observer: Any = None) -> None:
        Scheduler._instances += 1
        self._sched_id = Scheduler._instances
        self._heap: List[Tuple[int, int, SimThread]] = []
        self._threads: List[SimThread] = []
        self._blocked: Dict[int, SimThread] = {}
        self._blocked_on: Dict[int, str] = {}
        self._seq = 0
        self.fast_path = fast_path
        self.fast_resumes = 0
        self.max_time: int = 0
        # repro.obs hook: explicit observer, else the process-global one
        # (attack primitives build their schedulers internally, so `repro
        # trace` relies on the global pickup); None = off, one branch per
        # resume/block.
        self._obs = observer if observer is not None else current_observer()

    def spawn(self, body: ThreadBody, *args: Any, name: Optional[str] = None,
              **kwargs: Any) -> SimThread:
        """Create a thread from generator function ``body(ctx, *args)``."""
        self._seq += 1
        thread_name = name if name is not None else f"thread-{self._seq}"
        ctx = Context(thread_name, self._seq, self)
        gen = body(ctx, *args, **kwargs)
        if not isinstance(gen, Iterator):
            raise TypeError(
                f"thread body {body!r} must be a generator function "
                f"(got {type(gen).__name__}); add at least one `yield`"
            )
        thread = SimThread(ctx, gen, self._seq)
        self._threads.append(thread)
        self._schedule(thread)
        return thread

    def _schedule(self, thread: SimThread) -> None:
        heapq.heappush(self._heap, (thread.ctx.now, thread._seq, thread))

    def run(self, until: Optional[int] = None) -> int:
        """Run until all threads finish (or virtual time exceeds ``until``).

        Returns the final virtual time (max over all thread clocks).
        Raises :class:`DeadlockError` if threads remain blocked with no
        runnable thread to wake them — naming the semaphore/barrier each
        blocked thread is waiting on.  A bounded run (``until`` given) is a
        *partial* run: it pauses without raising, keeping every runnable
        and blocked thread intact, so a later ``run()`` call resumes where
        it stopped (possibly after new threads were spawned to unblock the
        waiters).
        """
        heap = self._heap
        heappush, heappop = heapq.heappush, heapq.heappop
        use_fast = self.fast_path
        obs = self._obs
        while heap:
            now, _seq, thread = heappop(heap)
            if thread.finished:
                continue
            if until is not None and now > until:
                heappush(heap, (now, _seq, thread))
                break
            if obs is not None:
                obs.on_thread_resume(thread.ctx.name, now, self._sched_id)
            # Run-to-block: keep stepping this thread inline for as long as
            # it only checkpoints and stays globally minimal.
            generator = thread.generator
            ctx = thread.ctx
            seq = thread._seq
            while True:
                try:
                    command = next(generator)
                except StopIteration as stop:
                    thread.finished = True
                    thread.result = stop.value
                    break
                if command is None:
                    ctx_now = ctx.now
                    if use_fast and (until is None or ctx_now <= until):
                        if not heap:
                            self.fast_resumes += 1
                            continue
                        head = heap[0]
                        if ctx_now < head[0] or (ctx_now == head[0]
                                                 and seq < head[1]):
                            self.fast_resumes += 1
                            continue
                    heappush(heap, (ctx_now, seq, thread))
                    break
                self._dispatch(thread, command)
                break
        if until is None and not heap and self._blocked:
            raise DeadlockError(
                "all runnable threads finished; blocked: "
                + ", ".join(sorted(
                    f"{t.name} (waiting on {self._blocked_on.get(s, 'unknown')})"
                    for s, t in self._blocked.items()))
            )
        self.max_time = max((t.ctx.now for t in self._threads), default=0)
        return self.max_time

    def _dispatch(self, thread: SimThread, command: Any) -> None:
        if command is None:
            self._schedule(thread)
        elif isinstance(command, _Acquire):
            self._do_acquire(thread, command.semaphore)
        elif isinstance(command, _Release):
            self._do_release(thread, command.semaphore)
        elif isinstance(command, _BarrierWait):
            self._do_barrier(thread, command.barrier)
        else:
            raise TypeError(f"thread {thread.name} yielded unknown command {command!r}")

    def _do_acquire(self, thread: SimThread, sem: Semaphore) -> None:
        if sem._tokens:
            token_time = sem._tokens.popleft()
            thread.ctx.advance_to(token_time)
            self._schedule(thread)
        else:
            sem._waiters.append(thread)
            self._blocked[thread._seq] = thread
            self._blocked_on[thread._seq] = f"semaphore {sem.name!r}"
            if self._obs is not None:
                self._obs.on_thread_block(thread.ctx.name, thread.ctx.now,
                                          f"semaphore {sem.name}",
                                          self._sched_id)

    def _do_release(self, thread: SimThread, sem: Semaphore) -> None:
        release_time = thread.ctx.now
        if sem._waiters:
            waiter = sem._waiters.popleft()
            del self._blocked[waiter._seq]
            self._blocked_on.pop(waiter._seq, None)
            waiter.ctx.advance_to(release_time)
            self._schedule(waiter)
        else:
            sem._tokens.append(release_time)
        self._schedule(thread)

    def _do_barrier(self, thread: SimThread, barrier: Barrier) -> None:
        barrier._arrived.append(thread)
        if len(barrier._arrived) < barrier.parties:
            self._blocked[thread._seq] = thread
            self._blocked_on[thread._seq] = f"barrier {barrier.name!r}"
            if self._obs is not None:
                self._obs.on_thread_block(thread.ctx.name, thread.ctx.now,
                                          f"barrier {barrier.name}",
                                          self._sched_id)
            return
        resume_time = max(t.ctx.now for t in barrier._arrived)
        for waiter in barrier._arrived:
            waiter.ctx.advance_to(resume_time)
            if waiter._seq in self._blocked:
                del self._blocked[waiter._seq]
                self._blocked_on.pop(waiter._seq, None)
            self._schedule(waiter)
        barrier._arrived = []
