"""A DRAM device: the collection of banks behind one memory channel."""

from __future__ import annotations

from typing import Iterator, List

from repro.dram.address import DRAMGeometry
from repro.dram.bank import Bank
from repro.dram.timings import DRAMTimings


class DRAMDevice:
    """Owns the banks and the (optional) staggered refresh schedule.

    Refresh is a background noise source: while a bank refreshes, its row
    buffer closes and accesses queue behind it.  The paper's simulations
    include such noise sources (§5.1); refresh is disabled by default and
    enabled by noise-sensitive experiments.
    """

    def __init__(self, geometry: DRAMGeometry, timings: DRAMTimings,
                 refresh_enabled: bool = False) -> None:
        self.geometry = geometry
        self.timings = timings
        self.refresh_enabled = refresh_enabled
        #: Offset added to the local clock when computing refresh phases.
        #: The refresh schedule is a function of *absolute* time; rebasing
        #: the clocks to zero after a warm-up pass must not silently shift
        #: every rank's stagger, so the discarded time accumulates here
        #: (mod tREFI).
        self.refresh_epoch = 0
        self.banks: List[Bank] = [
            Bank(index=i, timings=timings) for i in range(geometry.num_banks)
        ]

    def __len__(self) -> int:
        return len(self.banks)

    def __iter__(self) -> Iterator[Bank]:
        return iter(self.banks)

    def bank(self, index: int) -> Bank:
        """Bank by flat index (0 .. num_banks-1)."""
        return self.banks[index]

    def refresh_window(self, bank_index: int, time: int) -> int:
        """If ``time`` falls inside the bank's refresh window, return the
        window's end; otherwise return ``time`` unchanged.

        DDR4-style all-bank refresh: every ``tREFI`` each *rank* refreshes
        for ``tRFC`` (all of its banks at once); ranks are staggered so
        the channel is never fully blocked.
        """
        if not self.refresh_enabled:
            return time
        phase = self._refresh_phase(bank_index, time)
        if phase < self.timings.rfc_cycles:
            window_end = time + (self.timings.rfc_cycles - phase)
            self.banks[bank_index].apply_refresh(window_end)
            return window_end
        return time

    def _refresh_phase(self, bank_index: int, time: int) -> int:
        """Position of ``time`` within the bank's rank's refresh period,
        in absolute-schedule terms (``refresh_epoch`` undoes clock
        rebases)."""
        period = self.timings.refi_cycles
        rank = bank_index // self.geometry.banks_per_rank
        stagger = (rank * period) // max(1, self.geometry.ranks)
        return (time + self.refresh_epoch - stagger) % period

    def in_refresh_window(self, bank_index: int, time: int) -> bool:
        """Pure predicate: does ``time`` fall inside the bank's refresh
        window?  Unlike :meth:`refresh_window` this never mutates bank
        state — the sanitizer uses it to audit serviced requests."""
        if not self.refresh_enabled:
            return False
        return self._refresh_phase(bank_index, time) < self.timings.rfc_cycles

    def reset_stats(self) -> None:
        """Zero all per-bank counters (keeps row-buffer state)."""
        for bank in self.banks:
            bank.stats.__init__()

    def rebase_time(self, now: int = None) -> None:
        """Reset all banks' busy/activation clocks to zero while keeping
        row-buffer contents — lets a measured replay start at t=0 after a
        warm-up pass ran to a large virtual time.

        ``now`` is the virtual time being discarded (defaults to the
        latest bank clock); it folds into :attr:`refresh_epoch` so the
        staggered refresh schedule continues from where the warm-up left
        it instead of restarting at phase zero.
        """
        if self.refresh_enabled:
            if now is None:
                now = max((bank.busy_until for bank in self.banks),
                          default=0)
            period = self.timings.refi_cycles
            self.refresh_epoch = (self.refresh_epoch + now) % period
        for bank in self.banks:
            bank.busy_until = 0
            bank.last_activation = 0
            bank.row_opened_at = 0
