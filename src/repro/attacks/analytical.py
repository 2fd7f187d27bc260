"""Analytical upper-bound throughput model (§5.1 methodology).

The paper compares against Streamline by *modeling its maximum
throughput*: simulation-extracted parameters (LLC hit/lookup latency,
average miss latency, hit/miss ratios) feed an analytical model, validated
against the attack's published real-system number (Streamline reports
1.8 Mb/s on hardware; the model bounds it at 2.7 Mb/s for the smallest
LLC).  This module implements that model; the parameters are extracted
from a built :class:`repro.system.System` so the bound moves with the
swept cache configuration exactly as in Fig. 8.  The DRAMA channels are
simulated end to end (:mod:`repro.attacks.drama`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system import System


@dataclass(frozen=True)
class ChannelCostParameters:
    """Simulation-extracted latency parameters (§5.1)."""

    l1_latency: int
    l2_latency: int
    llc_latency: int
    queue_cycles: int
    dram_hit_cycles: int
    dram_conflict_cycles: int
    cpu_hz: float

    @staticmethod
    def from_system(system: System) -> "ChannelCostParameters":
        h = system.config.hierarchy
        t = system.config.timings
        return ChannelCostParameters(
            l1_latency=h.l1_latency,
            l2_latency=h.l2_latency,
            llc_latency=h.llc_latency_cycles,
            queue_cycles=system.config.queue_cycles,
            dram_hit_cycles=t.hit_cycles,
            dram_conflict_cycles=t.conflict_cycles,
            cpu_hz=system.cpu_hz,
        )

    @property
    def lookup_path_cycles(self) -> int:
        """Full-depth cache lookup on the way to memory."""
        return self.l1_latency + self.l2_latency + self.llc_latency

    @property
    def dram_avg_cycles(self) -> float:
        """Average DRAM access over an even hit/conflict mix."""
        return (self.dram_hit_cycles + self.dram_conflict_cycles) / 2

    @property
    def miss_path_cycles(self) -> float:
        """Average latency of a demand access that misses every cache."""
        return self.lookup_path_cycles + self.queue_cycles + self.dram_avg_cycles

    def mbps(self, cycles_per_bit: float) -> float:
        if cycles_per_bit <= 0:
            return 0.0
        return self.cpu_hz / cycles_per_bit / 1e6


def streamline_upper_bound_mbps(system: System,
                                redundancy: float = 3.0) -> float:
    """Maximum throughput of the Streamline cache channel [115].

    Streamline is flushless: sender and receiver stream asynchronously over
    a shared array much larger than the LLC, one bit per cache line.  Per
    bit, the bound charges:

    - the sender's store miss (full lookup path + DRAM fill),
    - the resulting dirty-line write-back (an extra DRAM write on the
      channel's bandwidth),
    - the receiver's load miss (full lookup path + DRAM),

    all scaled by ``redundancy`` — the synchronization-free protocol's
    coding/guard-band overhead (Streamline transmits error-correction
    margin and rate-matching gaps instead of synchronizing).  With the
    default parameters the smallest-LLC (2 MB) bound is ~2.7 Mb/s,
    matching §5.1's validation figure (vs 1.8 Mb/s measured on real
    hardware by [115]), and it shrinks as the LLC lookup latency grows.
    """
    if redundancy < 1.0:
        raise ValueError("redundancy must be >= 1.0")
    p = ChannelCostParameters.from_system(system)
    sender_store = p.miss_path_cycles
    writeback = p.llc_latency + p.queue_cycles + p.dram_avg_cycles
    receiver_load = p.miss_path_cycles
    cycles_per_bit = redundancy * (sender_store + writeback + receiver_load)
    return p.mbps(cycles_per_bit)
