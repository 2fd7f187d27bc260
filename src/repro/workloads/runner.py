"""Two-core multiprogrammed workload runner and defense evaluation (Fig. 11).

The Fig. 11 setup (§6): a 2-core system where each core runs a different
instance of the *same* application on the *same* input (so they share
DRAM banks), evaluated under the open-row baseline, the closed-row policy
(CRP) and constant-time DRAM access (CTD).  The runner models simple
in-order cores: each memory reference stalls the issuing core for its
full hierarchy latency, with the kernel's compute cycles in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.config import SystemConfig
from repro.system import System
from repro.workloads.kernels import MemoryRef, WorkloadSpec, workload_spec


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

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _warm(system: System, streams: Sequence[Sequence[MemoryRef]]) -> None:
    """One warm-up replay, then rebase the clock and zero the counters so
    the measured replay starts from cycle 0 on a warm machine (§5.1)."""
    _replay(system, streams)
    system.controller.rebase_time()
    system.hierarchy.rebase_time()
    system.reset_stats()


def run_multiprogrammed(system: System,
                        streams: Sequence[Sequence[MemoryRef]],
                        warmup: bool = True) -> RunResult:
    """Replay one reference stream per core; returns combined stats.

    Cores advance independently (event-driven, lowest-time-first), so
    their DRAM requests interleave in the shared banks — the interference
    that makes the open-row policy's behaviour policy-dependent.

    With ``warmup`` (the default, matching §5.1's warm-up methodology)
    the streams are replayed once beforehand to populate the caches and
    the prefetcher tables; only the second, warm replay is measured.
    """
    if warmup:
        _warm(system, streams)
    return _replay(system, streams)


def _replay(system: System,
            streams: Sequence[Sequence[MemoryRef]]) -> RunResult:
    if len(streams) > system.config.hierarchy.num_cores:
        raise ValueError("more streams than cores")
    cursors = [0] * len(streams)
    times = [0] * len(streams)
    instructions = 0
    llc_misses = 0
    access = system.hierarchy.access
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
        requestor = requestors[core]
        end = len(stream)
        cursor = cursors[core]
        while True:
            ref = stream[cursor]
            cursor += 1
            compute = ref.compute_cycles
            issued = now + compute
            result = access(core, ref.addr, issued, is_write=ref.is_write,
                            pc=ref.pc, requestor=requestor)
            now = issued + result.latency
            instructions += 1 + compute  # 1-IPC compute model
            if not result.hit_level:
                llc_misses += 1
            if cursor == end or now >= limit:
                break
        cursors[core] = cursor
        times[core] = now
        if cursor == end:
            active.remove(core)
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
    return replace(base, num_cores=2, hierarchy=hierarchy)


def evaluate_defenses(name: str, base_config: Optional[SystemConfig] = None,
                      max_refs: int = 60_000,
                      policies: Sequence[str] = ("open", "crp", "ctd"),
                      ) -> DefenseEvaluation:
    """Run one Fig. 11 workload under each row policy.

    Two instances of the same kernel on the same input share the memory
    system; ``max_refs`` bounds each instance's replayed stream so the
    sweep completes at simulation scale.
    """
    spec = workload_spec(name)
    graph = spec.build_graph()
    stream = spec.refs(graph=graph, max_refs=max_refs)
    base = base_config or fig11_config()
    results: Dict[str, RunResult] = {}
    for policy in policies:
        system = System(base.with_defense(policy))
        results[policy] = run_multiprogrammed(system, [stream, stream])
    return DefenseEvaluation(workload=spec.name, results=results,
                             paper_mpki=spec.paper_mpki)
