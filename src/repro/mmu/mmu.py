"""Per-core MMU: two split L1 DTLBs, a unified L2 TLB, and the walker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mmu.page_table import PageTableWalker
from repro.mmu.tlb import TLB, TLBConfig


@dataclass(frozen=True)
class MMUConfig:
    """Table 2's MMU row."""

    l1_4k: TLBConfig = field(default_factory=lambda: TLBConfig(
        name="L1-DTLB-4K", entries=64, ways=4, latency_cycles=1,
        page_bytes=4096))
    l1_2m: TLBConfig = field(default_factory=lambda: TLBConfig(
        name="L1-DTLB-2M", entries=32, ways=4, latency_cycles=1,
        page_bytes=2 * 1024 * 1024))
    l2: TLBConfig = field(default_factory=lambda: TLBConfig(
        name="L2-TLB", entries=1536, ways=12, latency_cycles=12,
        page_bytes=4096))


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of a translation: physical address plus the cycles it cost."""

    paddr: int
    latency: int
    l1_hit: bool
    l2_hit: bool
    walked: bool


class MMU:
    """One core's translation path (flat virtual=physical address space).

    The simulation uses an identity virtual-to-physical mapping — attacks in
    the paper assume successful memory massaging, i.e. the attacker already
    knows the physical placement of its pages — so the MMU contributes
    latency and page-walk noise, not remapping.
    """

    def __init__(self, config: MMUConfig, walker: Optional[PageTableWalker],
                 core: int, huge_pages: bool = False) -> None:
        self.config = config
        self.walker = walker
        self.core = core
        self.huge_pages = huge_pages
        self.l1_4k = TLB(config.l1_4k)
        self.l1_2m = TLB(config.l1_2m)
        self.l2 = TLB(config.l2)

    def _l1(self) -> TLB:
        return self.l1_2m if self.huge_pages else self.l1_4k

    def translate(self, vaddr: int, issued: int) -> TranslationResult:
        """Translate ``vaddr``; may trigger a page-table walk."""
        l1 = self._l1()
        latency = l1.config.latency_cycles
        if l1.lookup(vaddr):
            return TranslationResult(paddr=vaddr, latency=latency,
                                     l1_hit=True, l2_hit=False, walked=False)
        latency += self.l2.config.latency_cycles
        if self.l2.lookup(vaddr):
            l1.fill(vaddr)
            return TranslationResult(paddr=vaddr, latency=latency,
                                     l1_hit=False, l2_hit=True, walked=False)
        walk_latency = 0
        if self.walker is not None:
            walk_latency = self.walker.walk(self.core, vaddr, issued + latency)
        latency += walk_latency
        self.l2.fill(vaddr)
        l1.fill(vaddr)
        return TranslationResult(paddr=vaddr, latency=latency,
                                 l1_hit=False, l2_hit=False, walked=True)

    def warm_up(self, vaddrs) -> None:
        """Pre-fill the TLBs (the attacks' warm-up phase, §5.1)."""
        for vaddr in vaddrs:
            self.l2.fill(vaddr)
            self._l1().fill(vaddr)
