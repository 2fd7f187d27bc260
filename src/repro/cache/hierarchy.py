"""Three-level cache hierarchy in front of the memory controller.

Implements the processor-side path of Table 2: per-core L1D and L2, a
shared inclusive LLC, prefetchers, and the cache-management operations the
attacks of §3.2/§5.1 rely on:

- demand loads/stores (the deep-lookup path that throttles DRAMA-style
  attacks),
- ``clflush`` (probes the LLC, write-back on the critical path),
- non-temporal accesses (bypass is *not* guaranteed — configurable
  probability, matching Table 1's "ISA guarantees: X"),
- inclusive back-invalidation (an LLC eviction removes the line from every
  upper level — this is what makes eviction sets work at all).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.cache import Cache, CacheConfig
from repro.cache.cacti import llc_latency_cycles
from repro.cache.prefetcher import IPStridePrefetcher, StreamerPrefetcher
from repro.dram.controller import MemoryController, MemoryResult
from repro.obs import current_observer


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache hierarchy parameters (defaults follow Table 2).

    The LLC lookup latency defaults to the CACTI model's value for
    (``llc_size_mb``, ``llc_ways``) so the Fig. 2/3 sweeps only need to vary
    the size/ways fields.
    """

    num_cores: int = 4
    line_bytes: int = 64
    l1_size_kb: int = 32
    l1_ways: int = 8
    l1_latency: int = 4
    l1_replacement: str = "lru"
    l2_size_kb: int = 1024
    l2_ways: int = 16
    l2_latency: int = 12
    l2_replacement: str = "srrip"
    llc_size_mb: float = 8.0  # Table 2: 2 MB/core x 4 cores
    llc_ways: int = 16
    llc_latency: Optional[int] = None  # None -> CACTI model
    llc_replacement: str = "srrip"
    prefetchers_enabled: bool = True
    nt_bypass_probability: float = 0.7
    nt_seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if not 0.0 <= self.nt_bypass_probability <= 1.0:
            raise ValueError("nt_bypass_probability must be within [0, 1]")

    @property
    def llc_latency_cycles(self) -> int:
        if self.llc_latency is not None:
            return self.llc_latency
        return llc_latency_cycles(self.llc_size_mb, self.llc_ways)


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of one access through the hierarchy.

    ``hit_level`` is 1/2/3 for a cache hit, 0 for a main-memory access.
    ``mem`` carries the DRAM result when the access reached memory.
    (A slotted, non-frozen dataclass: :meth:`CacheHierarchy.access`
    allocates one per call; :meth:`CacheHierarchy.demand` allocates none.)
    """

    latency: int
    issued: int
    hit_level: int
    mem: Optional[MemoryResult] = None
    writebacks: int = 0
    bypassed: bool = False

    @property
    def finish(self) -> int:
        return self.issued + self.latency


@dataclass(slots=True)
class RequestorCacheStats:
    """Per-requestor cache-event counters (what a hardware performance
    monitoring unit exposes — the §3 detection mechanisms' only input)."""

    accesses: int = 0
    llc_misses: int = 0
    clflushes: int = 0
    nt_accesses: int = 0
    first_seen_cycle: int = 0
    last_seen_cycle: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.llc_misses / self.accesses if self.accesses else 0.0

    @property
    def window_cycles(self) -> int:
        return max(1, self.last_seen_cycle - self.first_seen_cycle)


@dataclass
class HierarchyStats:
    demand_accesses: int = 0
    prefetches_issued: int = 0
    clflushes: int = 0
    nt_accesses: int = 0
    nt_bypasses: int = 0
    memory_writebacks: int = 0
    late_prefetch_stalls: int = 0
    by_requestor: dict = field(default_factory=dict)

    def requestor(self, name: str) -> RequestorCacheStats:
        stats = self.by_requestor.get(name)
        if stats is None:
            stats = RequestorCacheStats()
            self.by_requestor[name] = stats
        return stats

    def observe(self, requestor: str, time: int, *, miss: bool = False,
                clflush: bool = False, nt: bool = False) -> None:
        stats = self.by_requestor.get(requestor)
        if stats is None:
            stats = RequestorCacheStats()
            self.by_requestor[requestor] = stats
        if stats.accesses == 0 and stats.clflushes == 0:
            stats.first_seen_cycle = time
        if time > stats.last_seen_cycle:
            stats.last_seen_cycle = time
        if clflush:
            stats.clflushes += 1
        else:
            stats.accesses += 1
            if miss:
                stats.llc_misses += 1
            if nt:
                stats.nt_accesses += 1


def _make_prefetchers(config: HierarchyConfig) -> tuple:
    """One core's prefetchers as Table 2 places them: IP-stride at L1 and
    the streamer at L2 (none when they are disabled).  The hierarchy and
    every :class:`PrefetchSchedule` build theirs here, so both train
    identically configured prefetchers."""
    if not config.prefetchers_enabled:
        return ()
    return (IPStridePrefetcher(line_bytes=config.line_bytes),
            StreamerPrefetcher(line_bytes=config.line_bytes))


def _prefetcher_state(prefetchers: tuple) -> tuple:
    return tuple(prefetcher.state() for prefetcher in prefetchers)


Observe = Callable[[Optional[int], int], List[int]]


def _candidate_lines(l1_observe: Observe, l2_observe: Observe,
                     pc: Optional[int], addr: int, capacity: int,
                     line_bytes: int) -> List[int]:
    """Both of a core's prefetchers observe one demand access; returns
    their candidates inside DRAM as line numbers, in issue order (L1's
    first)."""
    candidates = l1_observe(pc, addr)
    l2_candidates = l2_observe(pc, addr)
    if l2_candidates:
        candidates = candidates + l2_candidates
    if not candidates:
        return candidates
    return [candidate // line_bytes for candidate in candidates
            if 0 <= candidate < capacity]


class PrefetchSchedule:
    """What one core's prefetchers fetch over a reference stream replayed
    ``passes`` times in a row, worked out ahead of the replay.

    Table 2's IP-stride (L1) and streamer (L2) prefetchers see only their
    own core's ``(pc, addr)`` sequence, so their candidates at each
    reference depend on the stream and the tables they start from alone:
    not on cache contents, DRAM timing, the row policy or the other cores.
    The schedule trains fresh prefetchers, built by the hierarchy's own
    factory and started from ``core``'s tables, through each pass, and
    keeps each reference's candidate lines.  A replay hands them to
    :meth:`CacheHierarchy.access` in place of training the core's
    prefetchers again, so the replays of one stream on several cores or
    under several row policies share one training.

    Pass ``p``'s lines for reference ``i`` are
    ``lines[p][starts[p][i]:starts[p][i + 1]]``: one flat ``array`` per
    pass, since a tuple per reference would cost several MB on a 60k-
    reference stream.  ``states[p]`` is the prefetcher state (settings and
    tables) pass ``p`` starts from, ``states[p + 1]`` the one training
    through it leaves.
    """

    def __init__(self, hierarchy: "CacheHierarchy", stream: Sequence,
                 passes: int, core: int = 0) -> None:
        if passes < 1:
            raise ValueError("passes must be >= 1")
        self.stream = stream
        self.line_bytes = line_bytes = hierarchy._line_bytes
        self.capacity = capacity = hierarchy._capacity
        prefetchers = _make_prefetchers(hierarchy.config)
        for prefetcher, start in zip(prefetchers,
                                     hierarchy.prefetcher_state(core)):
            prefetcher.load(start)
        observes = [prefetcher.observe for prefetcher in prefetchers]
        self.states = [_prefetcher_state(prefetchers)]
        self.lines: List[array] = []
        self.starts: List[array] = []
        for _ in range(passes):
            lines = array("q")
            if observes:
                l1_observe, l2_observe = observes
                starts = array("l", [0])
                extend, mark = lines.extend, starts.append
                for ref in stream:
                    found = _candidate_lines(l1_observe, l2_observe, ref.pc,
                                             ref.addr, capacity, line_bytes)
                    if found:
                        extend(found)
                    mark(len(lines))
            else:
                starts = array("l", [0]) * (len(stream) + 1)
            self.lines.append(lines)
            self.starts.append(starts)
            self.states.append(_prefetcher_state(prefetchers))


class CacheHierarchy:
    """Per-core L1/L2 plus a shared inclusive LLC over a memory controller."""

    def __init__(self, config: HierarchyConfig,
                 controller: MemoryController) -> None:
        self.config = config
        self.controller = controller
        line = config.line_bytes
        self.l1: List[Cache] = [
            Cache(CacheConfig(name=f"L1-{core}", size_bytes=config.l1_size_kb * 1024,
                              ways=config.l1_ways, latency_cycles=config.l1_latency,
                              line_bytes=line, replacement=config.l1_replacement))
            for core in range(config.num_cores)
        ]
        self.l2: List[Cache] = [
            Cache(CacheConfig(name=f"L2-{core}", size_bytes=config.l2_size_kb * 1024,
                              ways=config.l2_ways, latency_cycles=config.l2_latency,
                              line_bytes=line, replacement=config.l2_replacement))
            for core in range(config.num_cores)
        ]
        self.llc = Cache(CacheConfig(
            name="LLC", size_bytes=int(config.llc_size_mb * 1024 * 1024),
            ways=config.llc_ways, latency_cycles=config.llc_latency_cycles,
            line_bytes=line, replacement=config.llc_replacement))
        # Per core: (IP-stride, streamer), or () without prefetchers.
        self._prefetchers = [_make_prefetchers(config)
                             for _ in range(config.num_cores)]
        # Hot-path call table: bound observe methods per core.
        self._pf_observe = [
            tuple(prefetcher.observe for prefetcher in prefetchers)
            for prefetchers in self._prefetchers if prefetchers
        ]
        # Every upper-level cache's {line: slot} map and invalidate: an LLC
        # victim is back-invalidated only where its line is.
        self._upper_lines = [(cache._where, cache.invalidate)
                             for cache in (*self.l1, *self.l2)]
        self._nt_rng = random.Random(config.nt_seed)
        # Prefetch requestor labels ("cpu" -> "cpu-pf"), cached so the
        # prefetch loop does not rebuild the f-string on every candidate.
        self._pf_names: Dict[str, str] = {}
        # Lines being filled by in-flight prefetches: line addr -> DRAM
        # completion time.  A demand access that hits such a line before
        # the fill lands stalls for the remainder (a "late prefetch") —
        # this is how row-policy latency reaches prefetch-covered streams.
        # Insertion-ordered dict; trimmed FIFO via next(iter(...)).
        self._inflight_fills: Dict[int, int] = {}
        # Per-access constants hoisted off the critical path.
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._llc_latency = self.llc.config.latency_cycles
        self._line_bytes = config.line_bytes
        self._capacity = controller.config.geometry.capacity_bytes
        # The LLC's {line: slot} map, so a prefetch candidate's residency
        # check needs no call.
        self._llc_lines = self.llc._where
        self.stats = HierarchyStats()
        # Observability (repro.obs): None = off, one branch per hook site.
        self._obs = current_observer()

    def set_observer(self, observer) -> None:
        """Attach a :class:`repro.obs.Observer`; ``None`` detaches."""
        self._obs = observer

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(self, core: int, addr: int, issued: int, *,
               is_write: bool = False, pc: Optional[int] = None,
               requestor: str = "cpu",
               prefetch_lines: Optional[Sequence[int]] = None
               ) -> HierarchyResult:
        """A demand load/store by ``core`` at physical address ``addr``.

        ``core``'s prefetchers observe the access (``pc``, ``addr``), and
        their candidates not in the LLC are fetched.  ``prefetch_lines``
        takes the place of that training: the candidates as line numbers in
        issue order, from a :class:`PrefetchSchedule` pass (see
        :meth:`prefetch_pass`); ``pc`` is then unused.  :meth:`demand` does
        the work; this wraps its outcome in a :class:`HierarchyResult`."""
        latency, hit_level, mem, writebacks = self.demand(
            core, addr, issued, is_write, pc, requestor, prefetch_lines)
        return HierarchyResult(latency, issued, hit_level, mem, writebacks)

    def demand(self, core: int, addr: int, issued: int,
               is_write: bool = False, pc: Optional[int] = None,
               requestor: str = "cpu",
               prefetch_lines: Optional[Sequence[int]] = None
               ) -> Tuple[int, int, Optional[MemoryResult], int]:
        """:meth:`access` as ``(latency, hit_level, mem, writebacks)``, for
        callers that keep no result object.

        One pass looks up L1, L2 and the LLC.  The levels that missed fill
        from the bottom up, LLC, L2, L1, and each victim is handled as it
        leaves: an LLC victim is back-invalidated and, if dirty anywhere,
        written back to DRAM; a dirty L2 or L1 victim is written into the
        level below."""
        stats = self.stats
        stats.demand_accesses += 1
        latency = self._l1_latency
        inflight = self._inflight_fills
        if inflight:
            # A demand access to a line an in-flight prefetch is still
            # filling waits for the fill to land (a "late prefetch").
            completion = inflight.pop(addr - addr % self._line_bytes, None)
            if completion is not None:
                stats.late_prefetch_stalls += 1
                if completion > issued:
                    latency += completion - issued
        mem = None
        writebacks = 0
        l1 = self.l1[core]
        if l1.access(addr, is_write):
            hit_level = 1
        else:
            l2 = self.l2[core]
            latency += self._l2_latency
            if l2.access(addr):
                hit_level = 2
            else:
                llc = self.llc
                latency += self._llc_latency
                if llc.access(addr):
                    hit_level = 3
                else:
                    hit_level = 0
                    mem = self.controller.access(addr, issued + latency,
                                                 requestor=requestor,
                                                 is_write=is_write)
                    latency = mem.finish - issued
                    victim = llc.fill(addr)
                    if victim is not None:
                        writebacks = self._handle_llc_eviction(
                            victim, mem.finish, requestor)
                victim = l2.fill(addr)
                if victim is not None and victim[1]:
                    llc.fill(victim[0], True)
                    writebacks += 1
            victim = l1.fill(addr, is_write)
            if victim is not None and victim[1]:
                l2.fill(victim[0], True)
                writebacks += 1
            if not hit_level and self._obs is not None:
                self._obs.on_cache_miss(core, addr, issued, mem.finish,
                                        requestor)
        # The requestor's counters, kept as HierarchyStats.observe keeps
        # them.
        counters = stats.by_requestor.get(requestor)
        if counters is None:
            counters = stats.requestor(requestor)
        if counters.accesses == 0 and counters.clflushes == 0:
            counters.first_seen_cycle = issued
        if issued > counters.last_seen_cycle:
            counters.last_seen_cycle = issued
        counters.accesses += 1
        if not hit_level:
            counters.llc_misses += 1
        # Both prefetchers observe every demand access, unless a schedule
        # already did.  Most candidates are already in the LLC, so the
        # issue path is entered only for one that is not.
        if prefetch_lines is None and self._pf_observe:
            l1_observe, l2_observe = self._pf_observe[core]
            prefetch_lines = _candidate_lines(l1_observe, l2_observe, pc,
                                              addr, self._capacity,
                                              self._line_bytes)
        if prefetch_lines:
            llc_lines = self._llc_lines
            for line in prefetch_lines:
                if line not in llc_lines:
                    self._issue_prefetches(core, prefetch_lines,
                                           issued + latency, requestor)
                    break
        return latency, hit_level, mem, writebacks

    def access_batch(self, core: int, addrs, issued: int, *,
                     is_write: bool = False, pc: Optional[int] = None,
                     requestor: str = "cpu") -> int:
        """Sequential demand accesses, each issued at the previous finish;
        returns the finish time of the last.

        Only safe when no other thread touches the memory system between
        the batched accesses — batching removes the scheduler checkpoints
        a hand-written probe loop would yield at, so any cross-thread
        interleaving inside the batch would be lost (see EXPERIMENTS.md).
        """
        demand = self.demand
        now = issued
        for addr in addrs:
            now += demand(core, addr, now, is_write, pc, requestor)[0]
        return now

    def probe_batch(self, core: int, addrs, issued: int, *,
                    is_write: bool = False, pc: Optional[int] = None,
                    requestor: str = "cpu") -> "tuple":
        """Like :meth:`access_batch` but also returns per-access latencies:
        ``(finish, [latency, ...])`` — the Prime+Probe receiver shape."""
        demand = self.demand
        latencies: List[int] = []
        now = issued
        for addr in addrs:
            latency = demand(core, addr, now, is_write, pc, requestor)[0]
            latencies.append(latency)
            now += latency
        return now, latencies

    def _handle_llc_eviction(self, victim: Tuple[int, bool], time: int,
                             requestor: str) -> int:
        """Inclusive LLC: back-invalidate the LLC's ``(line_addr, dirty)``
        victim from every upper level; write back dirty data to DRAM off
        the critical path.  Returns the number of write-backs (0 or 1)."""
        addr, dirty = victim
        line = addr // self._line_bytes
        for lines, invalidate in self._upper_lines:
            if line in lines and invalidate(addr):
                dirty = True
        if dirty:
            # Finish-only path: write-backs are fire-and-forget, nobody
            # consumes the MemoryResult.
            self.controller.access_finish(addr, time, requestor=requestor,
                                          is_write=True)
            self.stats.memory_writebacks += 1
            if self._obs is not None:
                self._obs.on_cache_writeback(addr, time, requestor)
            return 1
        return 0

    # ------------------------------------------------------------------
    # Prefetchers (noise sources)
    # ------------------------------------------------------------------

    def _issue_prefetches(self, core: int, lines: Sequence[int], time: int,
                          requestor: str) -> None:
        """Fetch each candidate line not in the LLC into the LLC and
        ``core``'s L2.  A fill can evict a later candidate, so each is
        checked when its turn comes."""
        pf_name = self._pf_names.get(requestor)
        if pf_name is None:
            pf_name = f"{requestor}-pf"
            self._pf_names[requestor] = pf_name
        line_bytes = self._line_bytes
        llc_lines = self._llc_lines
        llc_fill = self.llc.fill
        l2_fill = self.l2[core].fill
        access_finish = self.controller.access_finish
        inflight = self._inflight_fills
        stats = self.stats
        for line in lines:
            if line in llc_lines:
                continue
            line_addr = line * line_bytes
            # Prefetches run off the demand critical path but do touch DRAM
            # (and thus perturb row buffers — the noise the attacks battle).
            inflight[line_addr] = access_finish(line_addr, time,
                                                requestor=pf_name)
            while len(inflight) > 512:
                del inflight[next(iter(inflight))]
            victim = llc_fill(line_addr)
            if victim is not None:
                self._handle_llc_eviction(victim, time, requestor)
            l2_fill(line_addr)
            stats.prefetches_issued += 1

    def prefetcher_state(self, core: int) -> tuple:
        """``core``'s prefetchers' settings and tables, in LRU order; ``()``
        without prefetchers."""
        return _prefetcher_state(self._prefetchers[core])

    def prefetch_pass(self, core: int, schedule: PrefetchSchedule,
                      index: int) -> Tuple[array, array]:
        """Pass ``index`` of ``schedule`` as ``(lines, starts)``, for
        ``core`` to replay through ``access(prefetch_lines=...)``.

        Raises ``ValueError`` unless the schedule was built for this
        hierarchy's line size and DRAM capacity and ``core``'s prefetchers,
        settings and tables, are in the state the pass starts from."""
        if (schedule.line_bytes, schedule.capacity) != (self._line_bytes,
                                                        self._capacity):
            raise ValueError(
                f"schedule built for {schedule.line_bytes}-byte lines over "
                f"{schedule.capacity} bytes of DRAM; this hierarchy has "
                f"{self._line_bytes}-byte lines over {self._capacity}")
        if self.prefetcher_state(core) != schedule.states[index]:
            raise ValueError(f"core {core}'s prefetchers are not in the "
                             f"state pass {index} of the schedule starts from")
        return schedule.lines[index], schedule.starts[index]

    def end_prefetch_pass(self, core: int, schedule: PrefetchSchedule,
                          index: int) -> None:
        """Leave ``core``'s prefetchers as training them through pass
        ``index`` of ``schedule`` would have."""
        for prefetcher, state in zip(self._prefetchers[core],
                                     schedule.states[index + 1]):
            prefetcher.load(state)

    # ------------------------------------------------------------------
    # Cache management operations (attack primitives)
    # ------------------------------------------------------------------

    def clflush(self, core: int, addr: int, issued: int, *,
                requestor: str = "cpu") -> HierarchyResult:
        """Flush ``addr``'s line from the whole hierarchy.

        Latency model per §5.1's DRAMA-clflush: the flush probes the LLC;
        if any copy is dirty the write-back to DRAM lands on the critical
        path (§3.2: that write-back latency is clflush's key cost)."""
        self.stats.clflushes += 1
        self.stats.observe(requestor, issued, clflush=True)
        latency = self.llc.latency_cycles
        dirty = False
        for cache in (self.l1[core], self.l2[core], self.llc):
            line_dirty = cache.invalidate(addr)
            if line_dirty:
                dirty = True
        # Copies in other cores' private caches must go too (coherence).
        for other in range(self.config.num_cores):
            if other == core:
                continue
            for cache in (self.l1[other], self.l2[other]):
                if cache.invalidate(addr):
                    dirty = True
        mem: Optional[MemoryResult] = None
        writebacks = 0
        if dirty:
            mem = self.controller.access(addr, issued + latency,
                                         requestor=requestor, is_write=True)
            latency += mem.latency
            writebacks = 1
            self.stats.memory_writebacks += 1
        if self._obs is not None:
            self._obs.on_clflush(core, addr, issued, issued + latency,
                                 requestor, dirty)
        return HierarchyResult(latency=latency, issued=issued, hit_level=3,
                               mem=mem, writebacks=writebacks)

    def nt_access(self, core: int, addr: int, issued: int, *,
                  is_write: bool = False, requestor: str = "cpu") -> HierarchyResult:
        """Non-temporal access: bypasses the caches only probabilistically.

        The ISA does not guarantee NT hints bypass the hierarchy (§3.2);
        whether a given access bypasses is decided by a seeded RNG with
        probability ``nt_bypass_probability``."""
        self.stats.nt_accesses += 1
        if self._nt_rng.random() < self.config.nt_bypass_probability:
            self.stats.nt_bypasses += 1
            self.stats.observe(requestor, issued, miss=True, nt=True)
            mem = self.controller.access(addr, issued, requestor=requestor,
                                         is_write=is_write)
            return HierarchyResult(latency=mem.latency, issued=issued,
                                   hit_level=0, mem=mem, bypassed=True)
        self.stats.requestor(requestor).nt_accesses += 1
        return self.access(core, addr, issued, is_write=is_write,
                           requestor=requestor)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_cached(self, addr: int) -> bool:
        """Is ``addr``'s line resident anywhere on-chip?  Side-effect-free.

        The LLC is inclusive of every L1/L2, so one LLC probe answers for
        the whole hierarchy.  This is the ground truth an off-chip
        predictor trains against (Hermes [116]): data residency, not the
        path an operation happened to take.
        """
        return self.llc.probe(addr)

    def llc_set_stride(self) -> int:
        """Byte stride between addresses that map to the same LLC set."""
        return self.llc.config.num_sets * self.config.line_bytes

    def build_eviction_set(self, addr: int, size: Optional[int] = None) -> List[int]:
        """Construct an eviction set for ``addr``: ``size`` distinct lines
        mapping to the same LLC set (§3.2; default one per LLC way).

        Effectiveness is NOT guaranteed by construction — under SRRIP the
        target line may survive ``ways`` conflicting fills (Table 1's
        "ISA guarantees: X" for eviction sets).

        The candidates ``base + k * stride`` (mod DRAM capacity) are
        distinct until the walk wraps back to ``base``; raises
        ``ValueError`` there, when DRAM holds fewer than ``size`` other
        lines of ``addr``'s LLC set."""
        if size is None:
            size = self.config.llc_ways
        stride = self.llc_set_stride()
        capacity = self.controller.config.geometry.capacity_bytes
        base = self.llc.line_addr(addr) % capacity
        result: List[int] = []
        for k in range(1, size + 1):
            candidate = (base + k * stride) % capacity
            if candidate == base:
                raise ValueError(
                    f"DRAM holds {k - 1} lines in the LLC set of {addr:#x} "
                    f"besides it, fewer than the {size} requested")
            result.append(candidate)
        return result

    def reset_stats(self) -> None:
        """Zero every counter — hierarchy-level, per-requestor, and each
        cache level's — while keeping cache contents.  Used between a
        warm-up replay and the measured replay (§5.1 methodology)."""
        self.stats = HierarchyStats()
        for cache in (*self.l1, *self.l2, self.llc):
            cache.reset_stats()

    def rebase_time(self) -> None:
        """Forget time-stamped transient state (in-flight prefetch fills)
        so a measured replay can restart the clock at zero after a warm-up
        pass; cache contents are kept."""
        self._inflight_fills.clear()
