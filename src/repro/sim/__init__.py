"""Simulation kernel: virtual-time cooperative threads and synchronization.

The kernel provides the concurrency substrate every other subsystem builds
on.  Simulated threads are Python generators scheduled in virtual-time order
(the runnable thread with the smallest local clock always runs next), which
guarantees that mutations of shared hardware state — DRAM row buffers and
cache sets — happen in nondecreasing global-time order.

Public API:

- :class:`Scheduler` — spawns and runs :class:`SimThread` coroutines.
- :class:`Semaphore`, :class:`Barrier`, :class:`Fence` — virtual-time
  synchronization primitives (timestamps propagate through them, so a waiter
  resumes no earlier than the signaler's release time).
- :class:`Context` — per-thread view of time (``now``) plus helpers for
  advancing the clock and tracking asynchronous completions.
- :class:`CycleTimer` — emulates ``cpuid``/``rdtscp`` user-space timing.
"""

from repro.sim.scheduler import (
    Barrier,
    Context,
    DeadlockError,
    Scheduler,
    Semaphore,
    SimThread,
)
from repro.sim.timer import CycleTimer, TimerConfig

__all__ = [
    "Barrier",
    "Context",
    "CycleTimer",
    "DeadlockError",
    "Scheduler",
    "Semaphore",
    "SimThread",
    "TimerConfig",
]
