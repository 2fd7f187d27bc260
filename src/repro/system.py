"""The simulated PiM-enabled system: everything wired together.

:class:`System` builds the full machine from a :class:`SystemConfig` —
memory controller, cache hierarchy, PEI engine, RowClone engine, DMA
engine, background noise — and exposes the *operation API* that
simulated threads (attack senders/receivers, victims, workloads) call.
Every operation takes the calling thread's :class:`repro.sim.Context` and
advances its clock by the operation's latency.

Construction is cheap, even with the paper's largest (64 MB) LLC, because
cache state is flat (see :class:`repro.cache.cache.Cache`), so code that
needs an untouched machine builds a new one.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cache.hierarchy import CacheHierarchy, HierarchyResult
from repro.config import SystemConfig
from repro.dram.controller import MemoryController, MemoryResult
from repro.obs import (MultiObserver, Observer, Sanitizer, current_observer,
                       sanitize_requested)
from repro.pim.offchip import OffChipPredictor, OffChipPredictorConfig
from repro.pim.pei import ExecutionSite, PEIEngine, PEIResult
from repro.pim.rowclone import RowCloneEngine, RowCloneResult
from repro.sim.scheduler import Context
from repro.sim.timer import CycleTimer


class BackgroundNoise:
    """Poisson background row activations in random banks (§5.1 noise).

    Attack harnesses call :meth:`run` over each observation window; the
    injector replays the stray activations (co-running prefetchers,
    page-table walkers, refresh shadows) that fell inside it.
    """

    def __init__(self, controller: MemoryController, rate_per_kilocycle: float,
                 seed: int) -> None:
        self.controller = controller
        self.rate = rate_per_kilocycle / 1000.0
        self._rng = random.Random(seed)
        self._next_event: Optional[int] = None
        self.injected = 0

    def _schedule_from(self, time: int) -> int:
        gap = self._rng.expovariate(self.rate) if self.rate > 0 else float("inf")
        return time + max(1, int(gap))

    def run(self, start: int, end: int) -> int:
        """Inject activations in [start, end); returns how many fired."""
        if self.rate <= 0 or end <= start:
            return 0
        if self._next_event is None or self._next_event < start:
            self._next_event = self._schedule_from(start)
        fired = 0
        while self._next_event < end:
            bank = self._rng.randrange(self.controller.num_banks)
            row = self._rng.randrange(self.controller.config.geometry.rows_per_bank)
            self.controller.activate(bank, row, self._next_event,
                                     requestor="noise")
            fired += 1
            self.injected += 1
            self._next_event = self._schedule_from(self._next_event)
        return fired


class System:
    """A PiM-enabled machine assembled from a :class:`SystemConfig`."""

    def __init__(self, config: Optional[SystemConfig] = None, *,
                 observer: Optional[Observer] = None,
                 sanitize: Optional[bool] = None) -> None:
        """Build the machine.

        Args:
            config: system configuration (paper defaults when omitted).
            observer: a :class:`repro.obs.Observer` (e.g. a ``Tracer``)
                attached to every instrumented component; defaults to the
                process-global observer, if one is installed.
            sanitize: attach a strict :class:`repro.obs.Sanitizer` that
                raises on any timing-invariant violation.  ``None`` (the
                default) defers to the ``REPRO_SANITIZE`` environment
                variable.
        """
        self.config = config or SystemConfig.paper_default()
        if sanitize is None:
            sanitize = sanitize_requested()
        self.sanitizer: Optional[Sanitizer] = Sanitizer() if sanitize else None
        base = observer if observer is not None else current_observer()
        parts: List[Observer] = [p for p in (base, self.sanitizer)
                                 if p is not None]
        if len(parts) > 1:
            self.observer: Optional[Observer] = MultiObserver(parts)
        elif parts:
            self.observer = parts[0]
        else:
            self.observer = None
        self.controller = MemoryController(self.config.controller_config())
        self.hierarchy = CacheHierarchy(self.config.hierarchy, self.controller)
        self.pei = PEIEngine(self.config.pei, self.controller, self.hierarchy)
        self.rowclone_engine = RowCloneEngine(self.config.rowclone,
                                              self.controller)
        self.noise = BackgroundNoise(
            self.controller, self.config.noise.activation_rate_per_kilocycle,
            self.config.noise.seed)
        self._dma_rng = random.Random(self.config.dma.jitter_seed)
        self.offchip_predictor: Optional[OffChipPredictor] = None
        if self.observer is not None:
            self.controller.set_observer(self.observer)
            self.hierarchy.set_observer(self.observer)
            self.pei.set_observer(self.observer)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def enable_offchip_predictor(
            self, config: Optional[OffChipPredictorConfig] = None) -> OffChipPredictor:
        """Attach a Hermes-style predictor (PnM-OffChip baseline, §5.1)."""
        self.offchip_predictor = OffChipPredictor(
            config or OffChipPredictorConfig(), self.config.hierarchy.llc_size_mb)
        return self.offchip_predictor

    def new_timer(self) -> CycleTimer:
        """A cpuid+rdtscp-style timer under this system's timer config."""
        return CycleTimer(self.config.timer)

    def reset_stats(self) -> None:
        """Zero every statistics counter in the machine — cache hierarchy,
        memory controller, and per-bank DRAM counters — while keeping all
        architectural state (cache contents, row buffers).  Callers
        measuring a warm replay reset here after the warm-up pass."""
        self.hierarchy.reset_stats()
        self.controller.reset_stats()

    @property
    def num_banks(self) -> int:
        return self.controller.num_banks

    @property
    def cpu_hz(self) -> float:
        return self.config.cpu_ghz * 1e9

    # ------------------------------------------------------------------
    # Thread-facing operation API (each advances ctx.now)
    # ------------------------------------------------------------------

    def load(self, ctx: Context, core: int, addr: int, *,
             is_write: bool = False, pc: Optional[int] = None,
             requestor: Optional[str] = None) -> HierarchyResult:
        """Demand load/store through the cache hierarchy."""
        who = requestor if requestor is not None else ctx.name
        result = self.hierarchy.access(core, addr, ctx.now, is_write=is_write,
                                       pc=pc, requestor=who)
        ctx.advance_to(result.finish)
        return result

    def load_many(self, ctx: Context, core: int, addrs: List[int], *,
                  is_write: bool = False, pc: Optional[int] = None,
                  requestor: Optional[str] = None) -> int:
        """Back-to-back demand loads/stores (eviction walks, replays).

        Equivalent to calling :meth:`load` once per address, but with the
        per-access call overhead and result construction hoisted out of
        the loop.  Returns the batch's finish time.  Only safe when no
        other runnable thread touches the memory system during the batch —
        the scheduler checkpoints a hand-written loop would yield at are
        elided (see EXPERIMENTS.md).
        """
        who = requestor if requestor is not None else ctx.name
        finish = self.hierarchy.access_batch(core, addrs, ctx.now,
                                             is_write=is_write, pc=pc,
                                             requestor=who)
        ctx.advance_to(finish)
        return finish

    def clflush(self, ctx: Context, core: int, addr: int, *,
                requestor: Optional[str] = None) -> HierarchyResult:
        """Flush a line; write-back latency is on the critical path."""
        who = requestor if requestor is not None else ctx.name
        result = self.hierarchy.clflush(core, addr, ctx.now, requestor=who)
        ctx.advance_to(result.finish)
        return result

    def nt_load(self, ctx: Context, core: int, addr: int, *,
                requestor: Optional[str] = None) -> HierarchyResult:
        """Non-temporal load (bypass not guaranteed, Table 1)."""
        who = requestor if requestor is not None else ctx.name
        result = self.hierarchy.nt_access(core, addr, ctx.now, requestor=who)
        ctx.advance_to(result.finish)
        return result

    def dma_access(self, ctx: Context, addr: int, *,
                   is_write: bool = False,
                   requestor: Optional[str] = None) -> MemoryResult:
        """DMA-engine access: no cache lookup, heavy software stack (§3.2).

        The software stack's cost jitters (scheduling, doorbell, completion
        polling); the jitter is what blunts the DMA primitive's view of the
        row-buffer timing gap (Table 1)."""
        who = requestor if requestor is not None else ctx.name
        dma = self.config.dma
        overhead = dma.software_overhead_cycles + dma.engine_cycles
        if dma.jitter_cycles:
            overhead += self._dma_rng.randint(-dma.jitter_cycles,
                                              dma.jitter_cycles)
        issued = ctx.now + max(0, overhead)
        result = self.controller.access(addr, issued, requestor=who,
                                        is_write=is_write)
        ctx.advance_to(result.finish)
        return result

    def pei_op(self, ctx: Context, addr: int, *, core: int = 0,
               set_ignore: bool = False,
               requestor: Optional[str] = None) -> PEIResult:
        """Blocking PEI round trip (PMU decides the execution site)."""
        who = requestor if requestor is not None else ctx.name
        result = self.pei.execute(addr, ctx.now, core=core, requestor=who,
                                  set_ignore=set_ignore)
        ctx.advance_to(result.finish)
        return result

    def pei_op_async(self, ctx: Context, addr: int, *, core: int = 0,
                     set_ignore: bool = False,
                     requestor: Optional[str] = None) -> PEIResult:
        """Fire-and-forget PEI (result-free operations like ``pim_add``).

        The core pays only the issue slot; the bank-side completion is
        tracked on the context and retired by the next ``ctx.fence()``
        (the PEI paper's execution model for write-type PEIs [67]).
        Host-dispatched PEIs (high locality) execute synchronously — they
        are the cheap cache-hit case.
        """
        who = requestor if requestor is not None else ctx.name
        result = self.pei.execute(addr, ctx.now, core=core, requestor=who,
                                  set_ignore=set_ignore)
        if result.site is ExecutionSite.HOST:
            ctx.advance_to(result.finish)
        else:
            ctx.advance(self.config.pei.issue_cycles)
            ctx.track_completion(result.finish)
        return result

    def pei_op_predicted(self, ctx: Context, addr: int, *, core: int = 0,
                         requestor: Optional[str] = None) -> PEIResult:
        """PEI dispatched by the off-chip predictor instead of the PMU
        (the PnM-OffChip baseline)."""
        if self.offchip_predictor is None:
            raise RuntimeError("call enable_offchip_predictor() first")
        who = requestor if requestor is not None else ctx.name
        predictor = self.offchip_predictor
        site = (ExecutionSite.MEMORY if predictor.predict_offchip(addr)
                else ExecutionSite.HOST)
        result = self.pei.execute(addr, ctx.now, core=core, requestor=who,
                                  force_site=site)
        # Hermes' training signal is data residency, not execution site.
        # A host-dispatched PEI went off-chip iff it reached DRAM; a
        # memory-dispatched PEI *always* touches DRAM, so its ground truth
        # is whether the line was on-chip (inclusive-LLC probe) — the old
        # site-based signal trained every memory-side PEI toward off-chip,
        # letting a mispredicting predictor reinforce its own mistakes.
        if result.site is ExecutionSite.HOST:
            was_offchip = result.kind is not None
        else:
            was_offchip = not self.hierarchy.is_cached(addr)
        predictor.train(addr, was_offchip)
        ctx.advance_to(result.finish)
        return result

    def rowclone(self, ctx: Context, src_addr: int, dst_addr: int, mask: int, *,
                 requestor: Optional[str] = None) -> RowCloneResult:
        """Masked multi-bank RowClone (atomic at the controller)."""
        who = requestor if requestor is not None else ctx.name
        result = self.rowclone_engine.clone(src_addr, dst_addr, mask, ctx.now,
                                            requestor=who)
        ctx.advance_to(result.finish)
        return result

    # ------------------------------------------------------------------
    # Attack support
    # ------------------------------------------------------------------

    def address_of(self, bank: int, row: int, col: int = 0) -> int:
        """Memory-massaging result: the address landing at (bank, row)."""
        return self.controller.address_of(bank, row, col)
