"""A single set-associative write-back cache.

Table 2 uses LRU at L1 and SRRIP [118] at L2/L3; §3.3's idealised
Fig. 2/3 LLC is LRU too.  Replacement matters to the attacks: eviction
sets are only *probabilistically* effective because the policy is opaque
to the attacker (§3.2, Table 1 "ISA guarantees: X" for eviction sets),
and SRRIP in particular can retain a target line after ``ways``
conflicting fills.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: SRRIP's 2-bit re-reference prediction values: fills insert at
#: ``MAX_RRPV - 1`` (long re-reference), hits promote to 0, and the victim
#: is a way at ``MAX_RRPV``.
MAX_RRPV = 3
_SRRIP_INSERT = MAX_RRPV - 1
#: ``_SRRIP_AGE[step]`` adds ``step`` to every RRPV of a row in one
#: ``bytearray.translate``.
_SRRIP_AGE = [bytes(min(r + step, 255) for r in range(256))
              for step in range(MAX_RRPV + 1)]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and behaviour of one cache level.

    Attributes:
        name: label used in stats/telemetry (e.g. ``"L2"``).
        size_bytes: total capacity.
        ways: associativity.
        line_bytes: cache-line size (64 everywhere in Table 2).
        latency_cycles: lookup latency paid by every probe of this level.
        replacement: ``lru`` or ``srrip``.
    """

    name: str
    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = 64
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.line_bytes < 1:
            raise ValueError("line_bytes must be >= 1")
        if self.size_bytes < self.line_bytes:
            raise ValueError("cache smaller than one line")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")
        if self.latency_cycles < 0:
            raise ValueError("latency must be >= 0")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*ways = {self.line_bytes * self.ways}"
            )
        if self.replacement not in ("lru", "srrip"):
            raise ValueError(
                f"unknown replacement policy {self.replacement!r}; "
                "choose from ['lru', 'srrip']"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(slots=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Cache:
    """One cache level; addresses are physical byte addresses.

    State is flat.  Way ``w`` of set ``s`` is slot ``s * ways + w`` in the
    tag array and the dirty-bit bytes (tag ``-1`` marks an invalid way;
    physical line numbers are non-negative), and one ``{line: slot}`` dict
    answers lookups, so a hit and a miss each cost a single O(1) probe.
    Typed arrays also keep construction cheap: a 64 MB LLC has 1M slots,
    and they hold no Python object per slot, so each is one block to build
    and free, and the garbage collector has no slot to walk.

    LRU orders each filled set's valid slots in a ``{slot: None}`` dict,
    least recently used first: a hit or refill moves its slot to the end,
    and a full set's victim is the first slot, O(1) at any associativity.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        sets = config.num_sets
        ways = config.ways
        self._num_sets = sets
        self._ways = ways
        self._line_bytes = config.line_bytes
        self._tags = array("q", [-1]) * (sets * ways)
        self._dirty = bytearray(sets * ways)
        self._where: Dict[int, int] = {}
        # Valid ways per set: a set below ``ways`` fills its first invalid
        # way, so victims are only ever picked in full sets.
        self._filled = array("l", [0]) * sets
        # Replacement state: LRU's order per set (None until its first fill)
        # or SRRIP's RRPV byte per slot.  Every cache sets the same
        # attributes in the same order, the other policy's to None:
        # instances that share one layout keep CPython's attribute-access
        # fast paths on the demand path.
        lru = config.replacement == "lru"
        self._order: Optional[List[Optional[Dict[int, None]]]] = (
            [None] * sets if lru else None)
        self._rrpv: Optional[bytearray] = (
            None if lru else bytearray([MAX_RRPV]) * (sets * ways))
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr - addr % self._line_bytes

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Presence check with no replacement-state side effects."""
        return addr // self._line_bytes in self._where

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; returns True on hit (updates replacement and
        dirty state). A miss does NOT allocate — call :meth:`fill`."""
        slot = self._where.get(addr // self._line_bytes)
        if slot is None:
            self.stats.misses += 1
            return False
        order = self._order
        if order is not None:
            recency = order[slot // self._ways]
            recency[slot] = recency.pop(slot)
        else:
            self._rrpv[slot] = 0
        if is_write:
            self._dirty[slot] = True
        self.stats.hits += 1
        return True

    def fill(self, addr: int,
             dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Allocate ``addr``'s line, evicting a victim if the set is full.

        Returns the victim as ``(line_addr, dirty)``, its line-aligned byte
        address and dirty bit (for write-back/back-invalidation), or None.
        Filling a line that is already present just refreshes its state.
        """
        line = addr // self._line_bytes
        where = self._where
        slot = where.get(line)
        order = self._order
        if slot is not None:
            if order is not None:
                recency = order[slot // self._ways]
                recency[slot] = recency.pop(slot)
            else:
                self._rrpv[slot] = 0
            if dirty:
                self._dirty[slot] = True
            return None
        set_index = line % self._num_sets
        ways = self._ways
        base = set_index * ways
        tags = self._tags
        stats = self.stats
        if self._filled[set_index] < ways:
            # The set has an invalid way: take the first one.
            slot = tags.index(-1, base)
            self._filled[set_index] += 1
            victim = None
            if order is not None and order[set_index] is None:
                order[set_index] = {}
        else:
            if order is not None:
                recency = order[set_index]
                slot = next(iter(recency))
                del recency[slot]
            else:
                # SRRIP: the first way at MAX_RRPV.  When no way is there
                # (RRPVs never exceed it), every way ages by the distance
                # to the nearest re-reference in one shot, equivalent to
                # repeated +1 rounds.
                rrpv = self._rrpv
                end = base + ways
                slot = rrpv.find(MAX_RRPV, base, end)
                if slot < 0:
                    row = rrpv[base:end]
                    oldest = max(row)
                    rrpv[base:end] = row.translate(
                        _SRRIP_AGE[MAX_RRPV - oldest])
                    slot = base + row.index(oldest)
            old_line = tags[slot]
            del where[old_line]
            old_dirty = self._dirty[slot] != 0
            victim = (old_line * self._line_bytes, old_dirty)
            stats.evictions += 1
            if old_dirty:
                stats.writebacks += 1
        tags[slot] = line
        where[line] = slot
        self._dirty[slot] = dirty
        if order is not None:
            order[set_index][slot] = None
        else:
            self._rrpv[slot] = _SRRIP_INSERT
        stats.fills += 1
        return victim

    def invalidate(self, addr: int) -> Optional[bool]:
        """Remove ``addr``'s line if present; returns its dirty bit
        (None if the line was not present). Used by clflush and by
        back-invalidation from an inclusive LLC."""
        line = addr // self._line_bytes
        slot = self._where.pop(line, None)
        if slot is None:
            return None
        dirty = self._dirty[slot] != 0
        self._dirty[slot] = False
        self._tags[slot] = -1
        self._filled[line % self._num_sets] -= 1
        if self._order is not None:
            del self._order[slot // self._ways][slot]
        self.stats.invalidations += 1
        return dirty

    def reset_stats(self) -> None:
        """Zero the counters; cache contents are kept."""
        self.stats = CacheStats()

    @property
    def latency_cycles(self) -> int:
        return self.config.latency_cycles
