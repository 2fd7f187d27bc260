"""PIM-Enabled Instructions (PEI) — the PnM substrate [67].

The PEI architecture has two components IMPACT interacts with (§4.1):

- **PCUs** (PEI Computation Units): one near each DRAM bank plus one on the
  host.  A PEI executed in memory reaches the bank PCU over the on-chip
  network and performs its ~3-cycle operation next to the row buffer —
  bypassing the entire cache hierarchy.
- **PMU** (PEI Management Unit): monitors the locality of PEI target
  regions and executes high-locality PEIs on the *host* PCU (through the
  caches) instead.  Each locality-monitor entry carries an *ignore flag*
  that skips the first hit [93] — the exact mechanism IMPACT-PnM uses to
  keep its PEIs flowing to memory (§4.1, step 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.dram.bank import AccessKind
from repro.dram.controller import DeferredRescan, MemoryController
from repro.obs import current_observer


class ExecutionSite(enum.Enum):
    """Where a PEI actually executed."""

    MEMORY = "memory"
    HOST = "host"


@dataclass(frozen=True)
class PEIConfig:
    """PEI architecture parameters.

    ``pcu_op_cycles`` follows §5.1 (a PEI operation takes ~3 cycles beyond
    the DRAM access).  ``network_cycles`` is the one-way on-chip
    network + controller front-end latency between the core and a bank PCU;
    it is paid in both directions.
    """

    issue_cycles: int = 2
    network_cycles: int = 25
    pcu_op_cycles: int = 3
    monitor_entries: int = 256
    monitor_ways: int = 4
    locality_threshold: int = 2
    ignore_first_hit: bool = True

    def __post_init__(self) -> None:
        for name in ("issue_cycles", "network_cycles", "pcu_op_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.monitor_entries < 1 or self.monitor_ways < 1:
            raise ValueError("monitor geometry must be >= 1")
        if self.monitor_entries % self.monitor_ways != 0:
            raise ValueError("monitor_entries must divide by monitor_ways")
        if self.locality_threshold < 1:
            raise ValueError("locality_threshold must be >= 1")


@dataclass(frozen=True)
class PEIResult:
    """Outcome of one PEI operation."""

    site: ExecutionSite
    issued: int
    finish: int
    kind: Optional[AccessKind] = None  # DRAM outcome (memory path only)
    bank: Optional[int] = None

    @property
    def latency(self) -> int:
        return self.finish - self.issued


class LocalityMonitor:
    """The PMU's tag-based locality monitor with per-entry ignore flags.

    Entries are allocated per PEI target cache block.  A lookup returns
    whether the PMU considers the region *high locality* (execute on host).
    The first hit on a fresh entry is ignored when ``ignore_first_hit`` is
    set [93], which lets an attacker alternate within a small address range
    and still be dispatched to memory.
    """

    def __init__(self, config: PEIConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.line_bytes = line_bytes
        self.num_sets = config.monitor_entries // config.monitor_ways
        ways = config.monitor_ways
        self._tags: List[List[int]] = [[-1] * ways for _ in range(self.num_sets)]
        self._hits: List[List[int]] = [[0] * ways for _ in range(self.num_sets)]
        self._ignore: List[List[bool]] = [[False] * ways for _ in range(self.num_sets)]
        self._stamps: List[List[int]] = [[0] * ways for _ in range(self.num_sets)]
        self._clock = 0

    def _locate(self, block: int) -> Tuple[int, Optional[int]]:
        set_index = block % self.num_sets
        for way in range(self.config.monitor_ways):
            if self._tags[set_index][way] == block:
                return set_index, way
        return set_index, None

    def observe(self, addr: int, *, set_ignore: bool = False) -> bool:
        """Record a PEI to ``addr``; returns True if the PMU classifies the
        region as high-locality (host execution).

        ``set_ignore`` models the attacker explicitly setting the entry's
        ignore flag (§4.1 step 1).
        """
        self._clock += 1
        block = addr // self.line_bytes
        set_index, way = self._locate(block)
        if way is None:
            way = self._allocate(set_index)
            self._tags[set_index][way] = block
            self._hits[set_index][way] = 0
            self._ignore[set_index][way] = (self.config.ignore_first_hit
                                            or set_ignore)
            self._stamps[set_index][way] = self._clock
            return False
        self._stamps[set_index][way] = self._clock
        if set_ignore:
            self._ignore[set_index][way] = True
        if self._ignore[set_index][way]:
            # The first hit is ignored: too aggressive to call it high
            # locality yet [93].  The flag is consumed.
            self._ignore[set_index][way] = False
            return False
        self._hits[set_index][way] += 1
        return self._hits[set_index][way] >= self.config.locality_threshold

    def _allocate(self, set_index: int) -> int:
        ways = self.config.monitor_ways
        for way in range(ways):
            if self._tags[set_index][way] < 0:
                return way
        stamps = self._stamps[set_index]
        return min(range(ways), key=lambda w: stamps[w])


class PEIEngine:
    """Dispatches PEIs to bank PCUs or the host PCU via the PMU."""

    def __init__(self, config: PEIConfig, controller: MemoryController,
                 hierarchy: Optional[CacheHierarchy] = None) -> None:
        self.config = config
        self.controller = controller
        self.hierarchy = hierarchy
        line = hierarchy.config.line_bytes if hierarchy is not None else 64
        self.monitor = LocalityMonitor(config, line_bytes=line)
        self.memory_executions = 0
        self.host_executions = 0
        # Observability (repro.obs): None = off, one branch per PEI.
        self._obs = current_observer()

    def set_observer(self, observer) -> None:
        """Attach a :class:`repro.obs.Observer`; ``None`` detaches."""
        self._obs = observer

    # ------------------------------------------------------------------
    # Core operation
    # ------------------------------------------------------------------

    def execute(self, addr: int, issued: int, *, core: int = 0,
                requestor: str = "pei", set_ignore: bool = False,
                force_site: Optional[ExecutionSite] = None) -> PEIResult:
        """Execute one PEI targeting ``addr`` (blocking round trip).

        The PMU decides the execution site unless ``force_site`` overrides
        it (used by the off-chip-predictor baseline, which replaces the
        PMU's decision with the predictor's).
        """
        site = force_site
        if site is None:
            high_locality = self.monitor.observe(addr, set_ignore=set_ignore)
            site = ExecutionSite.HOST if high_locality else ExecutionSite.MEMORY
        if site is ExecutionSite.HOST:
            return self._execute_host(addr, issued, core, requestor)
        return self._execute_memory(addr, issued, requestor)

    def _execute_memory(self, addr: int, issued: int,
                        requestor: str) -> PEIResult:
        cfg = self.config
        t = issued + cfg.issue_cycles + cfg.network_cycles
        mem = self.controller.access(addr, t, requestor=requestor)
        finish = mem.finish + cfg.pcu_op_cycles + cfg.network_cycles
        self.memory_executions += 1
        if self._obs is not None:
            self._obs.on_pei("memory", addr, issued, finish, requestor,
                             mem.kind.value, mem.bank)
        return PEIResult(site=ExecutionSite.MEMORY, issued=issued,
                         finish=finish, kind=mem.kind, bank=mem.bank)

    def _execute_host(self, addr: int, issued: int, core: int,
                      requestor: str) -> PEIResult:
        cfg = self.config
        if self.hierarchy is None:
            raise RuntimeError("host PEI execution requires a cache hierarchy")
        t = issued + cfg.issue_cycles
        result = self.hierarchy.access(core, addr, t, requestor=requestor)
        finish = result.finish + cfg.pcu_op_cycles
        self.host_executions += 1
        kind = result.mem.kind if result.mem is not None else None
        bank = result.mem.bank if result.mem is not None else None
        if self._obs is not None:
            self._obs.on_pei("host", addr, issued, finish, requestor,
                             kind.value if kind is not None else None, bank)
        return PEIResult(site=ExecutionSite.HOST, issued=issued,
                         finish=finish, kind=kind, bank=bank)

    # ------------------------------------------------------------------
    # Parallel fan-out (the side-channel attacker's probe epoch, §4.3)
    # ------------------------------------------------------------------

    def execute_parallel(self, addrs: List[int], issued: int, *,
                         issue_gap_cycles: Optional[float] = None,
                         requestor: str = "pei") -> List[PEIResult]:
        """Issue many memory-side PEIs back to back.

        The core dispatches one PEI packet per ``issue_gap_cycles`` (default:
        ``issue_cycles``; fractional gaps model superscalar issue and are
        truncated per packet); the bank-side operations then proceed in
        parallel across banks.  Returns per-address results in input order.
        """
        gap = issue_gap_cycles if issue_gap_cycles is not None else self.config.issue_cycles
        cfg = self.config
        obs = self._obs
        results: List[PEIResult] = []
        for i, addr in enumerate(addrs):
            issue_time = issued + int(i * gap)
            t = issue_time + cfg.network_cycles
            mem = self.controller.access(addr, t, requestor=requestor)
            finish = mem.finish + cfg.pcu_op_cycles + cfg.network_cycles
            self.memory_executions += 1
            if obs is not None:
                obs.on_pei("memory", addr, issue_time, finish, requestor,
                           mem.kind.value, mem.bank)
            results.append(PEIResult(site=ExecutionSite.MEMORY,
                                     issued=issue_time, finish=finish,
                                     kind=mem.kind, bank=mem.bank))
        return results

    def execute_parallel_raw(self, locations: Sequence[Tuple[int, int]],
                             issued: int, *, threshold_cycles: int,
                             issue_gap_cycles: Optional[float] = None,
                             requestor: str = "pei",
                             ) -> Tuple[int, List[int]]:
        """Memory-side PEI fan-out over pre-decoded ``(bank, row)`` pairs,
        decoded in the same pass.

        Bit-identical timing, state evolution, and statistics to
        :meth:`execute_parallel` on the equivalent addresses, but returns
        only ``(finish, slow_banks)``: when the last PEI completes
        (``issued`` for an empty list) and, in input order, the banks whose
        round trip exceeded ``threshold_cycles``.  A row hit on an idle
        bank is committed by the loop itself; every other access goes
        through :meth:`Bank.access_raw`.

        The §4.3 attacker rescans every bank once per victim probe, and
        almost every PEI is then an idle hit on a bank nothing touched
        since the previous rescan.  When ``locations`` is a tuple holding
        one row over banks ``0..N-1`` in order, the controller keeps those
        hits pending (:class:`repro.dram.controller.DeferredRescan`), and
        the next rescan of the same tuple runs the loop only over the
        banks touched since.  It does so when it has the same gap and
        lead as the pending rescan, is issued at or after that rescan's
        finish, waits for no RowClone lock, and an idle hit's round trip
        is within ``threshold_cycles``: each untouched bank is then an
        idle hit and never slow.  Any other rescan first settles the
        controller and runs over every location.  Whenever an observer is
        attached (tracer, sanitizer) or a controller feature with
        per-access hooks is active (bank partitioning, refresh,
        constant-time), the call settles the controller and delegates to
        :meth:`execute_parallel`, so every observable event is still
        reported identically.
        """
        controller = self.controller
        if (self._obs is not None or controller._obs is not None
                or controller._partition or controller._refresh_enabled
                or controller._constant_time):
            controller.settle()
            encode = controller.mapper.encode
            results = self.execute_parallel(
                [encode(bank, row) for bank, row in locations], issued,
                issue_gap_cycles=issue_gap_cycles, requestor=requestor)
            return (max((r.finish for r in results), default=issued),
                    [r.bank for r in results if r.latency > threshold_cycles])
        cfg = self.config
        gap = (issue_gap_cycles if issue_gap_cycles is not None
               else cfg.issue_cycles)
        lead = cfg.network_cycles + controller._queue_cycles
        tail = cfg.pcu_op_cycles + cfg.network_cycles
        close_after = controller._close_after
        timings = controller.device.timings
        # A row hit on an idle bank under the open-row policy without a
        # timeout only pays tCAS and restarts the bank's clocks: exactly
        # what Bank.access_raw would record.
        idle_hits = not close_after and timings.row_timeout_cycles == 0
        hit_cycles = timings.hit_cycles
        hit_at = lead + hit_cycles
        locked = controller._locked_until  # only rowclone moves it
        count = len(locations)
        # A pending record exists only under idle_hits and with gap >= 0,
        # so every PEI arrives at or after the previous rescan's finish;
        # an equal hit_at means an equal lead.
        pending = controller._pending
        if (pending is not None and pending.locations is locations
                and pending.gap == gap and pending.hit_at == hit_at
                and issued >= pending.finish and locked <= issued + lead
                and hit_at + tail <= threshold_cycles):
            order = sorted(pending.touched)
        else:
            controller.settle()
            pending = None
            order = range(count)
        banks = controller.device.banks
        hit_kind = AccessKind.HIT
        conflict_kind = AccessKind.CONFLICT
        hits = 0
        conflicts = 0
        last = issued
        slow: List[int] = []
        for i in order:
            bank_index, row = locations[i]
            issue_time = issued + int(i * gap)
            start = issue_time + lead
            if start < locked:
                start = locked
            bank = banks[bank_index]
            if idle_hits and bank.open_row == row and bank.busy_until <= start:
                finish = start + hit_cycles
                bank.busy_until = bank.last_activation = finish
                bank.stats.hits += 1
                hits += 1
            else:
                kind, _service, finish = bank.access_raw(row, start,
                                                         close_after)
                if kind is hit_kind:
                    hits += 1
                elif kind is conflict_kind:
                    conflicts += 1
            finish += tail
            if finish > last:
                last = finish
            if finish - issue_time > threshold_cycles:
                slow.append(bank_index)
        if pending is not None:
            # The untouched banks' hits stay pending.  No bank finishes
            # before its idle hit would, so the last bank's idle finish
            # and the touched banks' finishes give the rescan's finish.
            hits += count - len(order)
            idle_last = issued + int((count - 1) * gap) + hit_at + tail
            if idle_last > last:
                last = idle_last
            pending.rescans += 1
            written = pending.written
            for i in order:
                written[i] = pending.rescans
            pending.touched.clear()
            pending.issued = issued
            pending.finish = last
        elif idle_hits and gap >= 0 and _one_row_over_banks(locations,
                                                             len(banks)):
            controller._pending = DeferredRescan(locations, gap, hit_at,
                                                 issued, last)
        if count:
            self.memory_executions += count
            stats = controller._stats_for(requestor)
            stats.reads += count
            stats.hits += hits
            stats.conflicts += conflicts
        return last, slow


def _one_row_over_banks(locations: Sequence[Tuple[int, int]],
                        num_banks: int) -> bool:
    """Whether ``locations`` is a tuple of ``(bank, row)`` pairs holding
    one row over banks ``0..num_banks-1`` in order.  A tuple of tuples
    cannot change, so a later rescan recognises it by identity alone."""
    if type(locations) is not tuple or len(locations) != num_banks:
        return False
    row = locations[0][1]
    return locations == tuple((bank, row) for bank in range(num_banks))
