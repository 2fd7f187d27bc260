"""Top-level system configuration (Table 2) and presets."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.cache.hierarchy import HierarchyConfig
from repro.dram.address import DRAMGeometry
from repro.dram.controller import MemoryControllerConfig, RowPolicy
from repro.dram.timings import DRAMTimings
from repro.pim.pei import PEIConfig
from repro.pim.rowclone import RowCloneConfig
from repro.sim.timer import TimerConfig


@dataclass(frozen=True)
class DMAConfig:
    """DMA-engine access cost model (§5.1 comparison point iv).

    A DMA transfer bypasses the caches but drags deep software stacks with
    it; ``software_overhead_cycles`` is the per-operation descriptor setup,
    doorbell, and completion handling cost that makes the DMA channel
    ~2.4x slower than IMPACT-PnM despite also being cache-free (§5.3).
    ``jitter_cycles`` is the uniform +/- variation of that software stack;
    it erodes the 70-cycle row-buffer gap, which is why Table 1 scores the
    DMA primitive's timing-difference detectability as a cross.
    """

    software_overhead_cycles: int = 320
    engine_cycles: int = 12
    jitter_cycles: int = 35
    jitter_seed: int = 7

    def __post_init__(self) -> None:
        if self.software_overhead_cycles < 0 or self.engine_cycles < 0:
            raise ValueError("DMA cycle costs must be >= 0")
        if self.jitter_cycles < 0:
            raise ValueError("DMA jitter must be >= 0")


@dataclass(frozen=True)
class NoiseConfig:
    """Background-activation noise (prefetchers of co-running processes,
    page-table walkers, refresh — §5.1 "Noise Sources").

    ``activation_rate_per_kilocycle`` is the expected number of stray row
    activations landing in random banks per 1000 CPU cycles.
    """

    activation_rate_per_kilocycle: float = 0.0
    seed: int = 99

    def __post_init__(self) -> None:
        if self.activation_rate_per_kilocycle < 0:
            raise ValueError("noise rate must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`repro.system.System`.

    ``paper_default()`` reproduces Table 2; experiment sweeps use
    :func:`dataclasses.replace`-style helpers (:meth:`with_llc`,
    :meth:`with_defense`).
    """

    cpu_ghz: float = 2.6
    geometry: DRAMGeometry = field(default_factory=DRAMGeometry)
    timings: DRAMTimings = field(default_factory=DRAMTimings)
    mapping: str = "row"
    row_policy: RowPolicy = RowPolicy.OPEN
    constant_time: bool = False
    queue_cycles: int = 4
    refresh_enabled: bool = False
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    pei: PEIConfig = field(default_factory=PEIConfig)
    rowclone: RowCloneConfig = field(default_factory=RowCloneConfig)
    dma: DMAConfig = field(default_factory=DMAConfig)
    # cpuid + rdtscp serialization costs ~20 cycles per timestamp read.
    timer: TimerConfig = field(
        default_factory=lambda: TimerConfig(read_overhead_cycles=20))
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    # ------------------------------------------------------------------
    # Presets and sweep helpers
    # ------------------------------------------------------------------

    @staticmethod
    def paper_default() -> "SystemConfig":
        """The Table 2 configuration: 4-core 2.6 GHz OoO x86, 3-level
        caches with SRRIP + prefetchers, DDR4-2400 with 16 banks x 4 ranks,
        open-row policy."""
        return SystemConfig()

    def with_llc(self, size_mb: float, ways: Optional[int] = None) -> "SystemConfig":
        """Sweep helper for Figs. 2/3/8: change LLC size and/or ways (the
        lookup latency follows the CACTI model automatically)."""
        new_ways = ways if ways is not None else self.hierarchy.llc_ways
        hierarchy = replace(self.hierarchy, llc_size_mb=size_mb, llc_ways=new_ways)
        return replace(self, hierarchy=hierarchy)

    def with_banks(self, num_banks: int) -> "SystemConfig":
        """Sweep helper for Fig. 10: flat bank count (single rank)."""
        geometry = replace(self.geometry, ranks=1, banks_per_rank=num_banks)
        return replace(self, geometry=geometry)

    def with_defense(self, defense: str) -> "SystemConfig":
        """Apply a §6 defense: ``"open"`` (baseline), ``"crp"`` (closed-row
        policy), or ``"ctd"`` (constant-time DRAM access).  MPR (bank
        partitioning) is applied on the built system via
        ``controller.partition_banks`` because it needs owner sets."""
        if defense == "open":
            return replace(self, row_policy=RowPolicy.OPEN, constant_time=False)
        if defense == "crp":
            return replace(self, row_policy=RowPolicy.CLOSED, constant_time=False)
        if defense == "ctd":
            return replace(self, row_policy=RowPolicy.OPEN, constant_time=True)
        raise ValueError(f"unknown defense {defense!r}; use open/crp/ctd")

    def with_noise(self, rate_per_kilocycle: float, seed: int = 99) -> "SystemConfig":
        return replace(self, noise=NoiseConfig(rate_per_kilocycle, seed))

    def controller_config(self) -> MemoryControllerConfig:
        return MemoryControllerConfig(
            geometry=self.geometry, timings=self.timings, mapping=self.mapping,
            row_policy=self.row_policy, constant_time=self.constant_time,
            queue_cycles=self.queue_cycles, refresh_enabled=self.refresh_enabled)

    # ------------------------------------------------------------------
    # Reporting (Table 2 bench)
    # ------------------------------------------------------------------

    def describe(self) -> List[Dict[str, str]]:
        """Rows mirroring Table 2 for the configuration dump bench."""
        h = self.hierarchy
        t = self.timings
        g = self.geometry
        return [
            {"component": "CPU",
             "configuration": f"{h.num_cores}-core, OoO x86, {self.cpu_ghz} GHz"},
            # Restates the paper's Table 2; translation is not simulated.
            {"component": "MMU",
             "configuration": "L1 DTLB (4KB): 64-entry 4-way 1-cycle; "
                              "L1 DTLB (2MB): 32-entry 4-way 1-cycle; "
                              "L2 TLB: 1536-entry 12-way 12-cycle"},
            {"component": "L1 Cache",
             "configuration": f"{h.l1_size_kb} KB, {h.l1_ways}-way, "
                              f"{h.l1_latency}-cycle, {h.l1_replacement.upper()}, "
                              f"IP-stride prefetcher"},
            {"component": "L2 Cache",
             "configuration": f"{h.l2_size_kb // 1024} MB, {h.l2_ways}-way, "
                              f"{h.l2_latency}-cycle, {h.l2_replacement.upper()}, "
                              f"Streamer"},
            {"component": "L3 Cache",
             "configuration": f"{h.llc_size_mb / h.num_cores:g} MB/core, "
                              f"{h.llc_ways}-way, {h.llc_latency_cycles}-cycle, "
                              f"{h.llc_replacement.upper()}"},
            {"component": "Main Memory",
             "configuration": f"DDR4-2400, {g.banks_per_rank} banks, {g.ranks} ranks, "
                              f"{g.channels} channel, row size = {g.row_bytes} bytes, "
                              f"tRCD = {t.t_rcd_ns} ns, tRP = {t.t_rp_ns} ns, "
                              f"{self.row_policy.value}-row policy"},
        ]
