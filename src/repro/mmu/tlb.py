"""Set-associative translation lookaside buffers (Table 2 MMU row)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class TLBConfig:
    """One TLB level.

    Defaults are Table 2's L1 DTLB for 4 KB pages: 64-entry, 4-way, 1-cycle.
    """

    name: str = "L1-DTLB-4K"
    entries: int = 64
    ways: int = 4
    latency_cycles: int = 1
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries < 1 or self.ways < 1:
            raise ValueError("entries and ways must be >= 1")
        if self.entries % self.ways != 0:
            raise ValueError(f"{self.name}: entries not divisible by ways")
        if self.latency_cycles < 0:
            raise ValueError("latency must be >= 0")
        if self.page_bytes < 1 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page_bytes must be a positive power of two")

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways


class TLB:
    """LRU set-associative TLB caching page-number translations."""

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        sets = config.num_sets
        self._pages: List[List[int]] = [[-1] * config.ways for _ in range(sets)]
        self._stamps: List[List[int]] = [[0] * config.ways for _ in range(sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def page_of(self, vaddr: int) -> int:
        return vaddr // self.config.page_bytes

    def lookup(self, vaddr: int) -> bool:
        """Probe for the page containing ``vaddr``; updates LRU on hit."""
        page = self.page_of(vaddr)
        set_index = page % self.config.num_sets
        pages = self._pages[set_index]
        for way in range(self.config.ways):
            if pages[way] == page:
                self._clock += 1
                self._stamps[set_index][way] = self._clock
                self.hits += 1
                return True
        self.misses += 1
        return False

    def fill(self, vaddr: int) -> Optional[int]:
        """Install the translation; returns the evicted page (or None)."""
        page = self.page_of(vaddr)
        set_index = page % self.config.num_sets
        pages = self._pages[set_index]
        stamps = self._stamps[set_index]
        if page in pages:
            return None
        victim = min(range(self.config.ways), key=lambda w: stamps[w])
        evicted = pages[victim] if pages[victim] >= 0 else None
        pages[victim] = page
        self._clock += 1
        stamps[victim] = self._clock
        return evicted

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
