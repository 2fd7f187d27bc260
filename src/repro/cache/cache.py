"""A single set-associative write-back cache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.replacement import (
    ReplacementPolicy,
    SRRIPPolicy,
    make_replacement_policy,
)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and behaviour of one cache level.

    Attributes:
        name: label used in stats/telemetry (e.g. ``"L2"``).
        size_bytes: total capacity.
        ways: associativity.
        line_bytes: cache-line size (64 everywhere in Table 2).
        latency_cycles: lookup latency paid by every probe of this level.
        replacement: ``lru`` / ``srrip`` / ``random``.
    """

    name: str
    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = 64
    replacement: str = "lru"

    def __post_init__(self) -> None:
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

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(slots=True)
class EvictedLine:
    """A line pushed out of a cache by a fill.

    (Slotted, unfrozen: one is allocated per eviction, which in steady
    state means nearly every fill — frozen-dataclass ``__setattr__``
    indirection measurably slows the simulator's hottest loop.)
    """

    addr: int  # line-aligned byte address
    dirty: bool


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

    Each set keeps two views of its contents: a way-indexed tag array
    (``-1`` for invalid ways; physical line numbers are non-negative) for
    victim bookkeeping, and a ``{line: way}`` dict for lookups.  The dict
    makes hits *and* misses a single O(1) probe — the miss path previously
    paid a full ``list.index`` scan plus a raised ``ValueError``, squarely
    on the simulator's hottest path.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        sets = config.num_sets
        ways = config.ways
        self._num_sets = sets
        self._ways = ways
        self._line_bytes = config.line_bytes
        self._tags: List[List[int]] = [[-1] * ways for _ in range(sets)]
        self._valid: List[List[bool]] = [[False] * ways for _ in range(sets)]
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(sets)]
        self._where: List[dict] = [{} for _ in range(sets)]
        self._policy: ReplacementPolicy = make_replacement_policy(
            config.replacement, sets, ways)
        self._policy_on_hit = self._policy.on_hit
        self._policy_on_fill = self._policy.on_fill
        self._policy_victim = self._policy.victim
        # SRRIP (L2/LLC in the Table 2 config) carries the bulk of fill
        # traffic; alias its RRPV array so access/fill can update it inline
        # instead of paying two policy calls per fill.  The alias shares
        # the *row lists* with the policy object — anything restoring
        # policy state must mutate those lists in place.
        if isinstance(self._policy, SRRIPPolicy):
            self._rrpv: Optional[List[List[int]]] = self._policy._rrpv
            self._max_rrpv = self._policy.MAX_RRPV
            self._insert_rrpv = self._policy.MAX_RRPV - 1
        else:
            self._rrpv = None
            self._max_rrpv = 0
            self._insert_rrpv = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr // self._line_bytes

    def set_index_of(self, addr: int) -> int:
        return (addr // self._line_bytes) % self._num_sets

    def line_addr(self, addr: int) -> int:
        return addr - addr % self._line_bytes

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _find(self, addr: int) -> Optional[int]:
        line = addr // self._line_bytes
        return self._where[line % self._num_sets].get(line)

    def probe(self, addr: int) -> bool:
        """Presence check with no replacement-state side effects."""
        line = addr // self._line_bytes
        return line in self._where[line % self._num_sets]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; returns True on hit (updates replacement and
        dirty state). A miss does NOT allocate — call :meth:`fill`."""
        line = addr // self._line_bytes
        set_index = line % self._num_sets
        way = self._where[set_index].get(line)
        if way is None:
            self.stats.misses += 1
            return False
        rrpv = self._rrpv
        if rrpv is not None:
            rrpv[set_index][way] = 0
        else:
            self._policy_on_hit(set_index, way)
        if is_write:
            self._dirty[set_index][way] = True
        self.stats.hits += 1
        return True

    def fill(self, addr: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Allocate ``addr``'s line, evicting a victim if the set is full.

        Returns the evicted line (for writeback/back-invalidation) or None.
        Filling a line that is already present just refreshes its state.
        """
        line = addr // self._line_bytes
        set_index = line % self._num_sets
        where = self._where[set_index]
        existing = where.get(line)
        rrpv_all = self._rrpv
        if existing is not None:
            if rrpv_all is not None:
                rrpv_all[set_index][existing] = 0
            else:
                self._policy_on_hit(set_index, existing)
            if dirty:
                self._dirty[set_index][existing] = True
            return None
        valid = self._valid[set_index]
        if rrpv_all is not None:
            # Inlined SRRIPPolicy.victim/on_fill (provably identical):
            # invalid way first, else first way at MAX_RRPV after one-shot
            # aging; insert the new line at MAX_RRPV - 1.
            if False in valid:
                way = valid.index(False)
            else:
                rrpvs = rrpv_all[set_index]
                max_rrpv = self._max_rrpv
                if max_rrpv not in rrpvs:
                    step = max_rrpv - max(rrpvs)
                    rrpvs[:] = [r + step for r in rrpvs]
                way = rrpvs.index(max_rrpv)
        else:
            way = self._policy_victim(set_index, valid)
        tags = self._tags[set_index]
        dirty_bits = self._dirty[set_index]
        stats = self.stats
        evicted: Optional[EvictedLine] = None
        if valid[way]:
            old_line = tags[way]
            del where[old_line]
            old_dirty = dirty_bits[way]
            evicted = EvictedLine(old_line * self._line_bytes, old_dirty)
            stats.evictions += 1
            if old_dirty:
                stats.writebacks += 1
        tags[way] = line
        where[line] = way
        valid[way] = True
        dirty_bits[way] = dirty
        if rrpv_all is not None:
            rrpv_all[set_index][way] = self._insert_rrpv
        else:
            self._policy_on_fill(set_index, way)
        stats.fills += 1
        return evicted

    def invalidate(self, addr: int) -> Optional[bool]:
        """Remove ``addr``'s line if present; returns its dirty bit
        (None if the line was not present). Used by clflush and by
        back-invalidation from an inclusive LLC."""
        line = addr // self._line_bytes
        set_index = line % self._num_sets
        way = self._where[set_index].pop(line, None)
        if way is None:
            return None
        dirty = self._dirty[set_index][way]
        self._valid[set_index][way] = False
        self._dirty[set_index][way] = False
        self._tags[set_index][way] = -1
        self.stats.invalidations += 1
        return dirty

    def resident_lines(self, set_index: int) -> List[int]:
        """Line addresses currently resident in ``set_index`` (testing aid)."""
        result = []
        for way in range(self._ways):
            if self._valid[set_index][way]:
                result.append(self._tags[set_index][way] * self._line_bytes)
        return result

    def reset_stats(self) -> None:
        """Zero the counters; cache contents are kept."""
        self.stats = CacheStats()

    def snapshot_state(self) -> dict:
        """Full copied state: contents, replacement metadata, counters."""
        s = self.stats
        return {
            "tags": [list(row) for row in self._tags],
            "valid": [list(row) for row in self._valid],
            "dirty": [list(row) for row in self._dirty],
            "where": [dict(d) for d in self._where],
            "policy": self._policy.snapshot_state(),
            "stats": (s.hits, s.misses, s.fills, s.evictions,
                      s.writebacks, s.invalidations),
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`snapshot_state` output (copies on the way in)."""
        for dst, src in zip(self._tags, state["tags"]):
            dst[:] = src
        for dst, src in zip(self._valid, state["valid"]):
            dst[:] = src
        for dst, src in zip(self._dirty, state["dirty"]):
            dst[:] = src
        for dst_map, src_map in zip(self._where, state["where"]):
            dst_map.clear()
            dst_map.update(src_map)
        self._policy.restore_state(state["policy"])
        self.stats = CacheStats(*state["stats"])

    @property
    def latency_cycles(self) -> int:
        return self.config.latency_cycles
