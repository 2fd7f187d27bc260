"""Two-core multiprogrammed workload runner and defense evaluation (Fig. 11).

The Fig. 11 setup (§6): a 2-core system where each core runs a different
instance of the *same* application on the *same* input (so they share
DRAM banks), evaluated under the open-row baseline, the closed-row policy
(CRP) and constant-time DRAM access (CTD).  The runner models simple
in-order cores: each memory reference stalls the issuing core for its
full hierarchy latency, with the kernel's compute cycles in between.

A core's prefetchers see only its own stream, so what they fetch at each
reference is worked out once per pass before the replay
(:class:`repro.cache.PrefetchSchedule`) and handed to the hierarchy with
each access; cache contents, DRAM timing and the interleaving of the
cores are simulated access by access.  :func:`run_multiprogrammed` builds
one schedule per distinct stream object, so two cores replaying one
stream share it, and :func:`evaluate_defenses` shares one schedule across
both cores and every row policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cache import CacheHierarchy, PrefetchSchedule
from repro.config import SystemConfig
from repro.system import System
from repro.workloads.kernels import MemoryRef, workload_spec


@dataclass
class RunResult:
    """Timing and cache statistics of one multiprogrammed run."""

    cycles: int
    instructions: int
    refs: int
    llc_misses: int

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction (Fig. 11's characterization)."""
        if self.instructions == 0:
            return 0.0
        return self.llc_misses * 1000.0 / self.instructions


def _schedules(hierarchy: CacheHierarchy,
               streams: Sequence[Sequence[MemoryRef]],
               passes: int) -> List[PrefetchSchedule]:
    """One prefetch schedule per core: one per distinct stream object and
    starting prefetcher state, shared by the cores that have both."""
    built: Dict[tuple, PrefetchSchedule] = {}
    schedules = []
    for core, stream in enumerate(streams):
        key = (id(stream), hierarchy.prefetcher_state(core))
        if key not in built:
            built[key] = PrefetchSchedule(hierarchy, stream, passes, core)
        schedules.append(built[key])
    return schedules


def _warm(system: System, streams: Sequence[Sequence[MemoryRef]],
          schedules: Sequence[PrefetchSchedule]) -> None:
    """One warm-up replay, then rebase the clock and zero the counters so
    the measured replay starts from cycle 0 on a warm machine (§5.1)."""
    _replay(system, streams, schedules, 0)
    system.controller.rebase_time()
    system.hierarchy.rebase_time()
    system.reset_stats()


def run_multiprogrammed(system: System,
                        streams: Sequence[Sequence[MemoryRef]],
                        warmup: bool = True, *,
                        schedules: Optional[Sequence[PrefetchSchedule]] = None
                        ) -> RunResult:
    """Replay one reference stream per core; returns combined stats.

    Cores advance independently (event-driven, lowest-time-first), so
    their DRAM requests interleave in the shared banks — the interference
    that makes the open-row policy's behaviour policy-dependent.

    With ``warmup`` (the default, matching §5.1's warm-up methodology)
    the streams are replayed once beforehand to populate the caches and
    the prefetcher tables; only the second, warm replay is measured.

    ``schedules`` gives each core's :class:`PrefetchSchedule`, built for
    its stream with a pass for the warm-up and one for the measured
    replay; without it, one is built per distinct stream.  A schedule that
    does not fit its core raises ``ValueError``.
    """
    if len(streams) > system.config.hierarchy.num_cores:
        raise ValueError("more streams than cores")
    passes = 2 if warmup else 1
    if schedules is None:
        schedules = _schedules(system.hierarchy, streams, passes)
    elif (len(schedules) != len(streams)
          or any(len(schedule.lines) < passes for schedule in schedules)):
        raise ValueError(f"give one prefetch schedule of {passes} passes "
                         "per stream")
    if warmup:
        _warm(system, streams, schedules)
    return _replay(system, streams, schedules, passes - 1)


def _replay(system: System, streams: Sequence[Sequence[MemoryRef]],
            schedules: Sequence[PrefetchSchedule], index: int) -> RunResult:
    """Pass ``index`` of the schedules: every stream once, the candidate
    lines from the schedules."""
    hierarchy = system.hierarchy
    passes = []
    for core, (stream, schedule) in enumerate(zip(streams, schedules)):
        if schedule.stream is not stream:
            raise ValueError(f"core {core}'s prefetch schedule was built "
                             "for another stream")
        passes.append(hierarchy.prefetch_pass(core, schedule, index))
    cursors = [0] * len(streams)
    times = [0] * len(streams)
    instructions = 0
    llc_misses = 0
    demand = hierarchy.demand
    requestors = [f"core{core}" for core in range(len(streams))]
    active = [core for core, stream in enumerate(streams) if stream]
    while active:
        # Pick the core with the lowest time, ties to the lower index, and
        # the time at which another core would be picked instead: the
        # least over the others of their time, plus one for a higher index
        # (cycle counts are integers).  ``active`` is in core order, so
        # every core seen before a new pick has a lower index.
        core = -1
        now = limit = math.inf
        for candidate in active:
            at = times[candidate]
            if at < now:
                core, now, limit = candidate, at, now
            elif at + 1 < limit:
                limit = at + 1
        # The picked core keeps issuing until then.
        stream = streams[core]
        lines, starts = passes[core]
        requestor = requestors[core]
        end = len(stream)
        cursor = cursors[core]
        while True:
            ref = stream[cursor]
            first = starts[cursor]
            cursor += 1
            last = starts[cursor]
            compute = ref.compute_cycles
            issued = now + compute
            latency, hit_level, _, _ = demand(
                core, ref.addr, issued, ref.is_write, None, requestor,
                lines[first:last] if last != first else ())
            now = issued + latency
            instructions += 1 + compute  # 1-IPC compute model
            if not hit_level:
                llc_misses += 1
            if cursor == end or now >= limit:
                break
        cursors[core] = cursor
        times[core] = now
        if cursor == end:
            active.remove(core)
            hierarchy.end_prefetch_pass(core, schedules[core], index)
    return RunResult(cycles=max(times) if times else 0,
                     instructions=instructions, refs=sum(cursors),
                     llc_misses=llc_misses)


@dataclass
class DefenseEvaluation:
    """Fig. 11 data for one workload: cycles per policy + overheads."""

    workload: str
    results: Dict[str, RunResult]
    paper_mpki: float = 0.0

    def overhead(self, defense: str) -> float:
        """Slowdown of ``defense`` relative to the open-row baseline."""
        base = self.results["open"].cycles
        if base == 0:
            return 0.0
        return self.results[defense].cycles / base - 1.0

    @property
    def measured_mpki(self) -> float:
        return self.results["open"].mpki

    def row(self) -> Dict[str, float]:
        return {
            "workload": self.workload,
            "mpki": round(self.measured_mpki, 2),
            "crp_overhead": round(self.overhead("crp"), 4),
            "ctd_overhead": round(self.overhead("ctd"), 4),
        }


def fig11_config() -> SystemConfig:
    """The scaled Fig. 11 system: a 2-core slice of Table 2.

    The cache hierarchy shrinks with the scaled-down graph inputs so the
    working-set-to-LLC ratios match the paper's multi-GB-inputs-vs-8MB-LLC
    regime (see :mod:`repro.workloads.kernels`)."""
    from dataclasses import replace

    from repro.cache import HierarchyConfig

    base = SystemConfig.paper_default()
    hierarchy = HierarchyConfig(num_cores=2, l2_size_kb=256,
                                llc_size_mb=1.0, llc_latency=32)
    return replace(base, hierarchy=hierarchy)


#: Fig. 11's row policies: the open-row baseline, then CRP and CTD.
POLICIES = ("open", "crp", "ctd")


def evaluate_defenses(name: str, base_config: Optional[SystemConfig] = None,
                      max_refs: int = 60_000) -> DefenseEvaluation:
    """Run one Fig. 11 workload under each row policy of :data:`POLICIES`.

    Two instances of the same kernel on the same input share the memory
    system; ``max_refs`` bounds each instance's replayed stream so the
    sweep completes at simulation scale.  The row policy does not reach
    the prefetchers, so every policy's replay shares one prefetch
    schedule.
    """
    spec = workload_spec(name)
    graph = spec.build_graph()
    stream = spec.refs(graph=graph, max_refs=max_refs)
    streams = [stream, stream]
    base = base_config or fig11_config()
    results: Dict[str, RunResult] = {}
    schedules = None
    for policy in POLICIES:
        system = System(base.with_defense(policy))
        if schedules is None:
            schedules = _schedules(system.hierarchy, streams, passes=2)
        results[policy] = run_multiprogrammed(system, streams,
                                              schedules=schedules)
    return DefenseEvaluation(workload=spec.name, results=results,
                             paper_mpki=spec.paper_mpki)
