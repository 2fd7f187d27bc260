"""Observer protocol shared by the trace and sanitizer layers.

Instrumented components (memory controller, cache hierarchy, scheduler,
PEI engine) hold an optional observer reference that defaults to ``None``;
every hook site is guarded by ``if obs is not None`` so the instrumentation
is a single attribute load + branch when observability is off — the
simulation hot paths pay (measurably) nothing.

:class:`Observer` is the no-op base: subclasses override only the hooks
they care about (:class:`repro.obs.trace.Tracer` records events,
:class:`repro.obs.sanitizer.Sanitizer` checks timing invariants).
:class:`MultiObserver` fans every hook out to several observers so tracing
and sanitizing can run together.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional


class Observer:
    """No-op base observer; every hook is safe to leave unimplemented.

    Hook arguments are plain values plus, for DRAM hooks, the live
    :class:`~repro.dram.bank.Bank` so checkers can inspect post-event bank
    state.  Observers must not mutate any component they are handed.
    """

    def bind_device(self, device: Any) -> None:
        """Called when attached to a memory controller; ``device`` is its
        :class:`~repro.dram.device.DRAMDevice` (geometry + timings +
        refresh schedule)."""

    # -- DRAM ----------------------------------------------------------
    def on_dram_access(self, op: str, bank_index: int, row: int, kind: Any,
                       requestor: str, issued: int, start: int,
                       service_start: int, finish: int, predicted: Any,
                       bank: Any) -> None:
        """A column access (``op`` = ``"RD"``/``"WR"``) or a bare
        activation (``op`` = ``"ACT"``) completed on ``bank``.

        ``start`` is the post-queue/post-refresh earliest issue time the
        controller handed the bank; ``predicted`` is the outcome
        ``Bank.classify`` forecast immediately before the access (``None``
        when the observer layer did not request a prediction).
        """

    def on_precharge(self, bank_index: int, issued: int, service_start: int,
                     finish: int, opened_at: int, had_row: bool,
                     bank: Any) -> None:
        """An explicit PRE command closed (or found already closed) a row."""

    def on_refresh(self, bank_index: int, blocked_at: int, window_end: int,
                   bank: Any) -> None:
        """A request was blocked by a refresh window ending at
        ``window_end``; the bank's row buffer closed."""

    def on_rowclone(self, bank_index: int, src_row: int, dst_row: int,
                    kind: Any, issued: int, service_start: int, finish: int,
                    requestor: str, predicted: Any, bank: Any) -> None:
        """One bank-level leg of a (multi-bank) RowClone completed."""

    # -- PiM -----------------------------------------------------------
    def on_pei(self, site: str, addr: int, issued: int, finish: int,
               requestor: str, kind: Optional[str],
               bank: Optional[int]) -> None:
        """A PEI operation completed at ``site`` (``"memory"``/``"host"``)."""

    # -- Cache hierarchy ----------------------------------------------
    def on_cache_miss(self, core: int, addr: int, issued: int, finish: int,
                      requestor: str) -> None:
        """A demand access missed the whole hierarchy and filled from DRAM."""

    def on_cache_writeback(self, addr: int, time: int,
                           requestor: str) -> None:
        """A dirty line left the LLC toward DRAM."""

    def on_clflush(self, core: int, addr: int, issued: int, finish: int,
                   requestor: str, dirty: bool) -> None:
        """A ``clflush`` invalidated a line everywhere."""

    # -- Scheduler -----------------------------------------------------
    def on_thread_resume(self, name: str, now: int, sched_id: int) -> None:
        """The scheduler resumed thread ``name`` at virtual time ``now``.

        ``sched_id`` identifies the scheduler instance — thread names
        repeat across trials (each builds a fresh scheduler restarting at
        t=0), so per-thread clocks are only monotonic *within* one
        scheduler's lifetime.
        """

    def on_thread_block(self, name: str, now: int, reason: str,
                        sched_id: int) -> None:
        """Thread ``name`` blocked on ``reason`` (semaphore/barrier name)."""

    # -- Lifecycle -----------------------------------------------------
    def on_clock_reset(self, reason: str) -> None:
        """Virtual clocks were legitimately rewound (``"rebase"`` after a
        warm-up pass); monotonicity baselines must restart."""


class MultiObserver(Observer):
    """Fans every hook out to each child observer, in order."""

    def __init__(self, observers: Iterable[Observer]) -> None:
        self.observers: List[Observer] = [o for o in observers if o is not None]

    def bind_device(self, device: Any) -> None:
        for o in self.observers:
            o.bind_device(device)

    def on_dram_access(self, *args: Any) -> None:
        for o in self.observers:
            o.on_dram_access(*args)

    def on_precharge(self, *args: Any) -> None:
        for o in self.observers:
            o.on_precharge(*args)

    def on_refresh(self, *args: Any) -> None:
        for o in self.observers:
            o.on_refresh(*args)

    def on_rowclone(self, *args: Any) -> None:
        for o in self.observers:
            o.on_rowclone(*args)

    def on_pei(self, *args: Any) -> None:
        for o in self.observers:
            o.on_pei(*args)

    def on_cache_miss(self, *args: Any) -> None:
        for o in self.observers:
            o.on_cache_miss(*args)

    def on_cache_writeback(self, *args: Any) -> None:
        for o in self.observers:
            o.on_cache_writeback(*args)

    def on_clflush(self, *args: Any) -> None:
        for o in self.observers:
            o.on_clflush(*args)

    def on_thread_resume(self, *args: Any) -> None:
        for o in self.observers:
            o.on_thread_resume(*args)

    def on_thread_block(self, *args: Any) -> None:
        for o in self.observers:
            o.on_thread_block(*args)

    def on_clock_reset(self, *args: Any) -> None:
        for o in self.observers:
            o.on_clock_reset(*args)
