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


def _load(table: dict, state: tuple, own: tuple) -> None:
    if state[:-1] != own[:-1]:
        raise ValueError(f"prefetcher state {state[:-1]} does not fit a "
                         f"prefetcher configured as {own[:-1]}")
    table.clear()
    table.update(state[-1])


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
        if entry is None:
            table[pc] = (addr, 0, 0)
            # Only a brand-new entry can grow the table; pop+reinsert of an
            # existing PC leaves the size unchanged, so trim only here.
            while len(table) > self._capacity:
                del table[next(iter(table))]
            return []
        last_addr, last_stride, confidence = entry
        stride = addr - last_addr
        if stride == 0:
            table[pc] = (addr, last_stride, confidence)
            return []
        if stride != last_stride:
            table[pc] = (addr, stride, 0)
            return []
        if confidence < 3:
            confidence += 1
        table[pc] = (addr, stride, confidence)
        start = addr + stride
        prefetches = list(range(start, start + stride * self.degree, stride))
        # Constant stride makes the list monotone: a negative tail is the
        # only way a negative address can appear.
        if prefetches[-1] < 0:
            prefetches = [p for p in prefetches if p >= 0]
        return prefetches

    def state(self) -> tuple:
        """What :meth:`observe` depends on besides its arguments: the
        settings, then the table in LRU order."""
        return (type(self).__name__, self._capacity, self.degree,
                self.line_bytes, tuple(self._table.items()))

    def load(self, state: tuple) -> None:
        """Set the table from the :meth:`state` of a prefetcher with the
        same settings; raises ``ValueError`` for other settings."""
        _load(self._table, state, self.state())


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
        if entry is None:
            regions[region] = (line, 0)
            # Size only grows on a brand-new region (see IP-stride note).
            while len(regions) > self._capacity:
                del regions[next(iter(regions))]
            return []
        last_line, direction = entry
        if line == last_line:
            regions[region] = (line, direction)
            return []
        new_direction = 1 if line > last_line else -1
        regions[region] = (line, new_direction)
        if direction != new_direction:
            return []
        step = new_direction * self.line_bytes
        start = line * self.line_bytes + step
        prefetches = list(range(start, start + step * self.degree, step))
        # Monotone by construction; only a negative tail can introduce
        # out-of-range (negative) addresses.
        if prefetches[-1] < 0:
            prefetches = [p for p in prefetches if p >= 0]
        return prefetches

    def state(self) -> tuple:
        """What :meth:`observe` depends on besides its arguments: the
        settings, then the region table in LRU order."""
        return (type(self).__name__, self._capacity, self.degree,
                self.line_bytes, self.REGION_BYTES,
                tuple(self._regions.items()))

    def load(self, state: tuple) -> None:
        """Set the table from the :meth:`state` of a prefetcher with the
        same settings; raises ``ValueError`` for other settings."""
        _load(self._regions, state, self.state())
