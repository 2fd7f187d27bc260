"""Hardware prefetchers — noise sources for the timing channels (§5.1).

Two designs from Table 2:

- **IP-stride** [117] at L1: per-instruction-pointer stride detection.
- **Streamer** [119] at L2: per-4KB-region sequential stream detection.

Prefetches perturb both cache contents and DRAM row buffers, which is the
noise the paper injects into its simulations; the attacks' error rates come
partly from these stray activations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class IPStridePrefetcher:
    """Stride-directed prefetching keyed by the load's instruction pointer.

    After two consecutive accesses by the same PC with an identical stride,
    it prefetches ``degree`` lines ahead along that stride.
    """

    def __init__(self, table_entries: int = 64, degree: int = 2,
                 line_bytes: int = 64) -> None:
        if table_entries < 1 or degree < 1:
            raise ValueError("table_entries and degree must be >= 1")
        self.degree = degree
        self.line_bytes = line_bytes
        # Insertion-ordered dict as an LRU: pop+reinsert moves to the end,
        # trimming evicts via next(iter(...)).
        self._table: Dict[int, Tuple[int, int, int]] = {}
        self._capacity = table_entries

    def observe(self, pc: Optional[int], addr: int) -> List[int]:
        """Record a demand access; return addresses to prefetch."""
        if pc is None:
            return []
        table = self._table
        entry = table.pop(pc, None)
        prefetches: List[int] = []
        if entry is None:
            table[pc] = (addr, 0, 0)
            # Only a brand-new entry can grow the table; pop+reinsert of an
            # existing PC leaves the size unchanged, so trim only here.
            while len(table) > self._capacity:
                del table[next(iter(table))]
        else:
            last_addr, last_stride, confidence = entry
            stride = addr - last_addr
            if stride != 0 and stride == last_stride:
                confidence = min(confidence + 1, 3)
            elif stride != 0:
                confidence = 0
            table[pc] = (addr, stride if stride != 0 else last_stride,
                         confidence)
            if confidence >= 1 and stride != 0:
                prefetches = [addr + stride * (i + 1) for i in range(self.degree)]
                # Constant stride makes the list monotone: a negative tail
                # is the only way a negative address can appear.
                if prefetches[-1] < 0:
                    prefetches = [p for p in prefetches if p >= 0]
        return prefetches


class StreamerPrefetcher:
    """Sequential stream prefetcher tracking 4 KB regions.

    Detects monotone line-granularity streams within a region and runs
    ``degree`` lines ahead of the demand stream.
    """

    REGION_BYTES = 4096

    def __init__(self, tracked_regions: int = 32, degree: int = 2,
                 line_bytes: int = 64) -> None:
        if tracked_regions < 1 or degree < 1:
            raise ValueError("tracked_regions and degree must be >= 1")
        self.degree = degree
        self.line_bytes = line_bytes
        self._regions: Dict[int, Tuple[int, int]] = {}
        self._capacity = tracked_regions

    def observe(self, pc: Optional[int], addr: int) -> List[int]:
        """Record a demand access; return addresses to prefetch."""
        regions = self._regions
        region = addr // self.REGION_BYTES
        line = addr // self.line_bytes
        entry = regions.pop(region, None)
        prefetches: List[int] = []
        if entry is None:
            regions[region] = (line, 0)
            # Size only grows on a brand-new region (see IP-stride note).
            while len(regions) > self._capacity:
                del regions[next(iter(regions))]
        else:
            last_line, direction = entry
            step = line - last_line
            if step == 0:
                regions[region] = (line, direction)
            else:
                new_direction = 1 if step > 0 else -1
                if direction == new_direction:
                    prefetches = [
                        (line + new_direction * (i + 1)) * self.line_bytes
                        for i in range(self.degree)
                    ]
                    # Monotone by construction; only a negative tail can
                    # introduce out-of-range (negative) addresses.
                    if prefetches[-1] < 0:
                        prefetches = [p for p in prefetches if p >= 0]
                regions[region] = (line, new_direction)
        return prefetches
