"""Attack primitives for reaching main memory — the Table 1 comparison.

Each primitive is one way to make a memory request observe DRAM row-buffer
state from user space (§3.2).  The module provides (i) the qualitative
property matrix of Table 1 and (ii) measured probe functions so the Table 1
bench can print both the paper's check marks and the latencies behind them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.sim.scheduler import Context, Scheduler
from repro.system import System


@dataclass(frozen=True)
class PrimitiveProperties:
    """Table 1's four columns for one attack primitive."""

    name: str
    no_cache_lookup: bool
    no_excessive_accesses: bool
    timing_detectability: bool
    isa_guarantee: bool

    def row(self) -> Dict[str, str]:
        def mark(flag: bool) -> str:
            return "yes" if flag else "no"
        return {
            "primitive": self.name,
            "no_cache_lookup": mark(self.no_cache_lookup),
            "no_excessive_accesses": mark(self.no_excessive_accesses),
            "timing_detectability": mark(self.timing_detectability),
            "isa_guarantee": mark(self.isa_guarantee),
        }


#: Table 1, verbatim.  DMA's ISA column is N/A in the paper; we record it
#: as False (no architectural guarantee exists either way).
TABLE1: List[PrimitiveProperties] = [
    PrimitiveProperties("specialized-instructions", no_cache_lookup=False,
                        no_excessive_accesses=True,
                        timing_detectability=True, isa_guarantee=True),
    PrimitiveProperties("eviction-sets", no_cache_lookup=False,
                        no_excessive_accesses=False,
                        timing_detectability=True, isa_guarantee=False),
    PrimitiveProperties("dma", no_cache_lookup=True,
                        no_excessive_accesses=True,
                        timing_detectability=False, isa_guarantee=False),
    PrimitiveProperties("non-temporal-hints", no_cache_lookup=False,
                        no_excessive_accesses=True,
                        timing_detectability=True, isa_guarantee=False),
    PrimitiveProperties("pim-operations", no_cache_lookup=True,
                        no_excessive_accesses=True,
                        timing_detectability=True, isa_guarantee=True),
]


# ---------------------------------------------------------------------------
# Measured probes: cycles for one direct-memory observation per primitive.
# ---------------------------------------------------------------------------

def _run(system: System, body) -> int:
    sched = Scheduler()
    thread = sched.spawn(body, system)
    sched.run()
    return thread.result


def measure_clflush_probe(system: System, addr: int) -> int:
    """Flush + reload: one row-buffer observation via clflush."""
    def body(ctx: Context, sys_: System):
        sys_.load(ctx, core=0, addr=addr)  # line cached, row open
        start = ctx.now
        sys_.clflush(ctx, core=0, addr=addr)
        sys_.load(ctx, core=0, addr=addr)
        yield None
        return ctx.now - start
    return _run(system, body)


def measure_eviction_probe(system: System, addr: int) -> int:
    """Evict (one access per LLC way) + reload."""
    def body(ctx: Context, sys_: System):
        sys_.load(ctx, core=0, addr=addr)
        eviction_set = sys_.hierarchy.build_eviction_set(addr)
        start = ctx.now
        # Single-threaded scheduler: the batched walk is trivially safe.
        sys_.load_many(ctx, core=0, addrs=eviction_set)
        sys_.load(ctx, core=0, addr=addr)
        yield None
        return ctx.now - start
    return _run(system, body)


def measure_dma_probe(system: System, addr: int) -> int:
    """One DMA-engine access (software stack included)."""
    def body(ctx: Context, sys_: System):
        start = ctx.now
        sys_.dma_access(ctx, addr)
        yield None
        return ctx.now - start
    return _run(system, body)


def measure_nt_probe(system: System, addr: int) -> int:
    """One non-temporal access (bypass not guaranteed)."""
    def body(ctx: Context, sys_: System):
        start = ctx.now
        sys_.nt_load(ctx, core=0, addr=addr)
        yield None
        return ctx.now - start
    return _run(system, body)


def measure_pim_probe(system: System, addr: int) -> int:
    """One PEI round trip to the bank PCU."""
    def body(ctx: Context, sys_: System):
        start = ctx.now
        sys_.pei_op(ctx, addr)
        yield None
        return ctx.now - start
    return _run(system, body)


PROBES: Dict[str, Callable[[System, int], int]] = {
    "specialized-instructions": measure_clflush_probe,
    "eviction-sets": measure_eviction_probe,
    "dma": measure_dma_probe,
    "non-temporal-hints": measure_nt_probe,
    "pim-operations": measure_pim_probe,
}


def measure_all(system: System, bank: int = 0, row: int = 64) -> Dict[str, int]:
    """Probe latency of every primitive against a fresh (bank, row).

    Each primitive measures on its own freshly built system (same
    configuration) so one probe's bank occupancy cannot queue behind
    another's."""
    results = {}
    for i, (name, probe) in enumerate(sorted(PROBES.items())):
        fresh = System(system.config)
        addr = fresh.address_of(bank=bank, row=row + i)
        results[name] = probe(fresh, addr)
    return results
