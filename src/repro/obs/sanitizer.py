"""Timing-invariant sanitizer for the simulated memory system.

The sanitizer checks DRAM protocol invariants on every observed event and
either raises :class:`SanitizerError` immediately (``strict=True``, the
default) or records the violation for later inspection.  Enabled with
``System(sanitize=True)`` or the ``REPRO_SANITIZE=1`` environment
variable; tier-1 runs under the sanitizer in CI.

Checked invariants
------------------

- **Event ordering** — ``issued <= start <= service_start <= finish`` for
  every DRAM access (queueing and refresh can only delay a request).
- **busy_until monotonicity** — a bank's ``busy_until`` never decreases
  across events, except across an explicit clock reset (a warm-up
  rebase, signaled via :meth:`on_clock_reset`).
- **classify/outcome agreement** — the outcome ``Bank.classify`` predicts
  immediately before an access equals what ``access_raw`` then records
  (this is the invariant that surfaced the open-row-timeout divergence).
- **Refresh windows block** — no access is serviced strictly inside a
  refresh window of its bank, and a bank that just refreshed has a closed
  row buffer and is busy through the window's end (this is the invariant
  that surfaced the queued-past-the-window ordering bug).
- **tRAS on explicit precharge** — an explicit PRE command never begins
  before the open row has been open for ``tRAS``.  (Implicit conflict
  precharges model ``tRP`` only — a deliberate simplification the figure
  baselines depend on — so the check is scoped to PRE commands.)
- **Per-thread clock monotonicity** — a scheduler never resumes a thread
  at an earlier virtual time than its previous resume.

State-equivalence invariants (sanitized-vs-plain runs, batch-vs-loop
equality) are whole-run properties rather than per-event checks; they live
in ``tests/test_obs_sanitizer.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.core import Observer


class SanitizerError(RuntimeError):
    """A timing invariant was violated (strict mode)."""


class Sanitizer(Observer):
    """Checks protocol invariants on every observed event.

    Args:
        strict: raise :class:`SanitizerError` at the first violation
            (default); ``False`` collects violations in
            :attr:`violations` instead.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[str] = []
        self.checked_events = 0
        self._device: Any = None
        self._ras_cycles: int = 0
        self._busy: Dict[int, int] = {}  # id(bank) -> last busy_until
        # (scheduler id, thread name) -> last resume time
        self._resume_floor: Dict[tuple, int] = {}

    # ------------------------------------------------------------------

    def bind_device(self, device: Any) -> None:
        self._device = device
        self._ras_cycles = device.timings.ras_cycles
        # A new controller means new Bank objects; drop the old floors so
        # a CPython id() reused by a fresh bank can't inherit a stale one.
        self._busy.clear()

    def _flag(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise SanitizerError(message)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _check_busy_monotonic(self, bank: Any, where: str) -> None:
        key = id(bank)
        busy = bank.busy_until
        prev = self._busy.get(key)
        if prev is not None and busy < prev:
            self._flag(f"bank {bank.index}: busy_until went backwards "
                       f"({prev} -> {busy}) at {where}")
        self._busy[key] = busy

    def _check_refresh_clear(self, bank_index: int, service_start: int,
                             where: str) -> None:
        device = self._device
        if device is not None and device.refresh_enabled \
                and device.in_refresh_window(bank_index, service_start):
            self._flag(f"bank {bank_index}: {where} serviced at "
                       f"{service_start}, inside a refresh window")

    # ------------------------------------------------------------------
    # DRAM hooks
    # ------------------------------------------------------------------

    def on_dram_access(self, op, bank_index, row, kind, requestor, issued,
                       start, service_start, finish, predicted,
                       bank) -> None:
        self.checked_events += 1
        if not issued <= start <= service_start <= finish:
            self._flag(f"bank {bank_index}: {op} time ordering broken "
                       f"(issued={issued}, start={start}, "
                       f"service_start={service_start}, finish={finish})")
        if predicted is not None and predicted is not kind:
            self._flag(f"bank {bank_index}: classify() predicted "
                       f"{predicted.value} but {op} recorded {kind.value} "
                       f"(row {row}, service_start {service_start})")
        self._check_refresh_clear(bank_index, service_start, op)
        self._check_busy_monotonic(bank, op)

    def on_precharge(self, bank_index, issued, service_start, finish,
                     opened_at, had_row, bank) -> None:
        self.checked_events += 1
        if had_row:
            earliest = opened_at + self._ras_cycles
            if service_start < earliest:
                self._flag(f"bank {bank_index}: PRE at {service_start} "
                           f"violates tRAS (row opened at {opened_at}, "
                           f"earliest legal PRE {earliest})")
            if finish < service_start:
                self._flag(f"bank {bank_index}: PRE finish {finish} before "
                           f"service start {service_start}")
        if bank.open_row is not None:
            self._flag(f"bank {bank_index}: row {bank.open_row} still open "
                       f"after PRE")
        self._check_busy_monotonic(bank, "PRE")

    def on_refresh(self, bank_index, blocked_at, window_end, bank) -> None:
        self.checked_events += 1
        if bank.open_row is not None:
            self._flag(f"bank {bank_index}: refresh left row "
                       f"{bank.open_row} open")
        if bank.busy_until < window_end:
            self._flag(f"bank {bank_index}: refresh window claims to block "
                       f"until {window_end} but bank is busy only until "
                       f"{bank.busy_until}")
        self._check_busy_monotonic(bank, "REF")

    def on_rowclone(self, bank_index, src_row, dst_row, kind, issued,
                    service_start, finish, requestor, predicted,
                    bank) -> None:
        self.checked_events += 1
        if not issued <= service_start <= finish:
            self._flag(f"bank {bank_index}: RowClone time ordering broken "
                       f"(issued={issued}, service_start={service_start}, "
                       f"finish={finish})")
        if predicted is not None and predicted is not kind:
            self._flag(f"bank {bank_index}: classify() predicted "
                       f"{predicted.value} but RowClone recorded "
                       f"{kind.value}")
        self._check_refresh_clear(bank_index, service_start, "RowClone")
        self._check_busy_monotonic(bank, "RowClone")

    # ------------------------------------------------------------------
    # Cache / PiM hooks (basic sanity only)
    # ------------------------------------------------------------------

    def on_pei(self, site, addr, issued, finish, requestor, kind,
               bank) -> None:
        self.checked_events += 1
        if finish < issued:
            self._flag(f"PEI at {addr:#x}: finish {finish} before issue "
                       f"{issued}")

    def on_cache_miss(self, core, addr, issued, finish, requestor) -> None:
        self.checked_events += 1
        if finish < issued:
            self._flag(f"cache miss at {addr:#x}: finish {finish} before "
                       f"issue {issued}")

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------

    def on_thread_resume(self, name, now, sched_id) -> None:
        key = (sched_id, name)
        floor = self._resume_floor.get(key)
        if floor is not None and now < floor:
            self._flag(f"thread {name!r}: resumed at {now}, before its "
                       f"previous resume at {floor}")
        self._resume_floor[key] = now

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_clock_reset(self, reason: str) -> None:
        self._busy.clear()
        self._resume_floor.clear()

    def report(self) -> str:
        if not self.violations:
            return (f"sanitizer: {self.checked_events} events checked, "
                    f"0 violations")
        lines = [f"sanitizer: {len(self.violations)} violation(s) in "
                 f"{self.checked_events} events:"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)
