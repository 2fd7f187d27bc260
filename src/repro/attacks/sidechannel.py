"""The read-mapping side channel (§4.3, Fig. 6, evaluated in Fig. 10).

The victim runs PiM-offloaded read mapping; its seeding step activates the
DRAM row holding each probed hash-table bucket.  The attacker keeps an
*anchor row* open in every bank and rescans all banks with back-to-back
PEIs after each victim probe: the bank whose rescan crosses the latency
threshold is the bank the victim touched, leaking ``log2(num_banks)`` bits
per observed probe (which bucket group — hence which candidate reference
positions — the victim's read hit).

The scan is rate-matched to the victim: seeding alternates hash-table
probes with computation (hashing, chaining bookkeeping), and the attacker
completes one full-bank scan per victim probe.  More banks => longer
scans => lower leakage bandwidth and a longer window for stray
activations (prefetchers, page-table walks) to pollute the decode — the
two trends of Fig. 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.genomics.pim_mapper import SeedAccess
from repro.sim.scheduler import Context, Scheduler
from repro.system import System


@dataclass(frozen=True)
class SideChannelConfig:
    """Attack parameters.

    ``scan_issue_gap_cycles`` is the attacker core's sustained PEI issue
    rate during a scan (superscalar issue of minimal PEI packets);
    ``victim_compute_cycles`` is the victim's seeding computation between
    hash-table probes (k-mer hashing, anchor bookkeeping);
    ``anchor_row`` must differ from every hash-table row.
    """

    scan_issue_gap_cycles: float = 1.45
    scan_fixed_cycles: int = 250
    victim_compute_cycles: int = 1600
    threshold_cycles: int = 150
    anchor_row: int = 50

    def __post_init__(self) -> None:
        if self.scan_issue_gap_cycles <= 0:
            raise ValueError("scan_issue_gap_cycles must be positive")
        if self.victim_compute_cycles < 0 or self.scan_fixed_cycles < 0:
            raise ValueError("cycle costs must be >= 0")


@dataclass
class SideChannelResult:
    """Outcome of one attack run (one Fig. 10 point)."""

    num_banks: int
    rounds: int
    correct: int
    missed: int
    false_positives: int
    cycles: int
    cpu_hz: float
    entries_per_bank: float

    @property
    def bits_per_leak(self) -> float:
        return math.log2(self.num_banks) if self.num_banks > 1 else 0.0

    @property
    def leaked_bits(self) -> float:
        """Bits from *correct* guesses only (§5.4 measurement rule)."""
        return self.correct * self.bits_per_leak

    @property
    def throughput_mbps(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.leaked_bits * self.cpu_hz / self.cycles / 1e6

    @property
    def error_rate(self) -> float:
        total = self.correct + self.missed + self.false_positives
        if total == 0:
            return 0.0
        return (self.missed + self.false_positives) / total

    @property
    def accuracy(self) -> float:
        return 1.0 - self.error_rate

    def summary(self) -> str:
        return (f"side-channel @{self.num_banks} banks: "
                f"{self.throughput_mbps:.2f} Mb/s, "
                f"error {self.error_rate:.2%}, "
                f"{self.entries_per_bank:.1f} candidate entries/bank")


class ReadMappingSideChannel:
    """Executes the §4.3 attack against a victim access schedule."""

    def __init__(self, system: System,
                 config: Optional[SideChannelConfig] = None) -> None:
        self.system = system
        self.config = config or SideChannelConfig()
        self.num_banks = system.num_banks
        rows = system.config.geometry.rows_per_bank
        if not 0 <= self.config.anchor_row < rows:
            raise ValueError(f"anchor row {self.config.anchor_row} out of "
                             f"range [0, {rows})")
        # The scan targets are fixed: the anchor row in every bank, handed
        # to the PEI engine pre-decoded (no address decode checks the row,
        # hence the check above) and as one tuple, so every rescan passes
        # the same object.
        self._scan_locs = tuple((bank, self.config.anchor_row)
                                for bank in range(self.num_banks))

    def _scan(self, ctx: Context) -> List[int]:
        """One full-bank rescan from ``ctx.now``; returns the banks seen
        in conflict.  ``execute_parallel_raw`` is bit-identical to
        ``execute_parallel`` plus a decode; after the first rescan it runs
        the bank model only over the banks touched since the previous
        one, and under observers it delegates to ``execute_parallel``."""
        cfg = self.config
        finish, slow_banks = self.system.pei.execute_parallel_raw(
            self._scan_locs, ctx.now, threshold_cycles=cfg.threshold_cycles,
            issue_gap_cycles=cfg.scan_issue_gap_cycles,
            requestor="attacker")
        ctx.advance_to(finish)
        ctx.advance(cfg.scan_fixed_cycles)
        return slow_banks

    def run(self, accesses: Sequence[SeedAccess],
            entries_per_bank: float = 0.0) -> SideChannelResult:
        """Leak the victim's probe schedule; returns the scored result.

        ``accesses`` is the victim's ground-truth schedule (from
        :meth:`repro.genomics.pim_mapper.PimReadMapper.trace_for_reads`).
        """
        for access in accesses:
            if access.row == self.config.anchor_row:
                raise ValueError("anchor row collides with a hash-table row")
        system = self.system
        cfg = self.config
        stats = {"correct": 0, "missed": 0, "fp": 0, "t0": 0, "t1": 0}

        def harness(ctx: Context, sys_: System):
            # Initial scan opens the anchor row everywhere.
            self._scan(ctx)
            yield None
            stats["t0"] = ctx.now
            noise_mark = ctx.now
            for access in accesses:
                # Victim: one hash-table probe + seeding computation.
                addr = sys_.address_of(access.bank, access.row,
                                       access.location.col)
                sys_.pei_op(ctx, addr, requestor="victim")
                ctx.advance(cfg.victim_compute_cycles)
                # Background noise accumulated over the round's window.
                sys_.noise.run(noise_mark, ctx.now)
                noise_mark = ctx.now
                # Attacker: rescan and decode.
                decoded = self._scan(ctx)
                if access.bank in decoded:
                    stats["correct"] += 1
                    stats["fp"] += len(decoded) - 1
                else:
                    stats["missed"] += 1
                    stats["fp"] += len(decoded)
                yield None
            stats["t1"] = ctx.now

        sched = Scheduler()
        sched.spawn(harness, system, name="side-channel")
        sched.run()
        system.controller.settle()
        return SideChannelResult(
            num_banks=self.num_banks,
            rounds=len(accesses),
            correct=stats["correct"],
            missed=stats["missed"],
            false_positives=stats["fp"],
            cycles=stats["t1"] - stats["t0"],
            cpu_hz=system.cpu_hz,
            entries_per_bank=entries_per_bank,
        )


def fake_schedule(num_banks: int, count: int, seed: int = 0,
                  row_offset: int = 1024) -> List[SeedAccess]:
    """A synthetic victim schedule (uniform-random banks) for tests and
    microbenchmarks that do not need the full genomics pipeline."""
    import random

    from repro.genomics.index import BucketLocation

    rng = random.Random(seed)
    accesses = []
    for i in range(count):
        bank = rng.randrange(num_banks)
        accesses.append(SeedAccess(
            hash_value=i,
            location=BucketLocation(entry_index=i, bank=bank,
                                    row=row_offset + (i % 8),
                                    col=(i % 16) * 64)))
    return accesses
