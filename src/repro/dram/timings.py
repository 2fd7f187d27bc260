"""DRAM timing parameters and derived CPU-cycle latencies.

Defaults follow Table 2 of the paper: DDR4-2400 with
``tRCD = tRP = tCAS = 13.5 ns`` behind a 2.6 GHz CPU, which yields the
~74-cycle row-conflict-over-hit gap reported in §3.1 (a conflict pays
``tRP + tRCD`` on top of a hit's ``tCAS``: 27 ns ≈ 70 CPU cycles, plus
command overheads).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing parameters (nanoseconds) and the CPU clock that observes
    them.  Each cycle figure is derived once per object and then cached.

    Attributes:
        cpu_ghz: host CPU frequency; all cycle figures are CPU cycles.
        t_rcd_ns: ACT-to-READ/WRITE delay (row activation).
        t_rp_ns: precharge delay (closing a row).
        t_cas_ns: READ command to data (column access, includes burst).
        t_ras_ns: minimum row-open time (ACT to PRE); bounds RowClone's
            back-to-back activation interval.
        t_refi_ns: average refresh interval (per refresh command).
        t_rfc_ns: refresh cycle time (bank unavailable while refreshing).
        row_timeout_ns: open-row policy timeout; ``0`` disables the timeout
            (rows stay open until a conflicting activation).
    """

    cpu_ghz: float = 2.6
    t_rcd_ns: float = 13.5
    t_rp_ns: float = 13.5
    t_cas_ns: float = 13.5
    t_ras_ns: float = 32.0
    t_refi_ns: float = 7800.0
    t_rfc_ns: float = 350.0
    row_timeout_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_ghz <= 0:
            raise ValueError("cpu_ghz must be positive")
        for field_name in ("t_rcd_ns", "t_rp_ns", "t_cas_ns", "t_ras_ns",
                           "t_refi_ns", "t_rfc_ns"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.row_timeout_ns < 0:
            raise ValueError("row_timeout_ns must be >= 0")

    def ns_to_cycles(self, ns: float) -> int:
        """Convert nanoseconds to (rounded) CPU cycles."""
        return int(round(ns * self.cpu_ghz))

    @cached_property
    def rcd_cycles(self) -> int:
        """Row activation latency in CPU cycles."""
        return self.ns_to_cycles(self.t_rcd_ns)

    @cached_property
    def rp_cycles(self) -> int:
        """Precharge latency in CPU cycles."""
        return self.ns_to_cycles(self.t_rp_ns)

    @cached_property
    def cas_cycles(self) -> int:
        """Column access latency in CPU cycles."""
        return self.ns_to_cycles(self.t_cas_ns)

    @cached_property
    def ras_cycles(self) -> int:
        """Minimum row-open time in CPU cycles."""
        return self.ns_to_cycles(self.t_ras_ns)

    @cached_property
    def refi_cycles(self) -> int:
        """Refresh interval in CPU cycles."""
        return self.ns_to_cycles(self.t_refi_ns)

    @cached_property
    def rfc_cycles(self) -> int:
        """Refresh cycle time in CPU cycles."""
        return self.ns_to_cycles(self.t_rfc_ns)

    @cached_property
    def row_timeout_cycles(self) -> int:
        """Open-row timeout in CPU cycles (0 = no timeout)."""
        return self.ns_to_cycles(self.row_timeout_ns)

    @cached_property
    def hit_cycles(self) -> int:
        """Latency of a row-buffer hit (column access only)."""
        return self.cas_cycles

    @cached_property
    def empty_cycles(self) -> int:
        """Latency of an access to a precharged (closed) bank."""
        return self.rcd_cycles + self.cas_cycles

    @cached_property
    def conflict_cycles(self) -> int:
        """Latency of a row-buffer conflict (precharge + activate + CAS)."""
        return self.rp_cycles + self.rcd_cycles + self.cas_cycles

    @cached_property
    def rowclone_fpm_cycles(self) -> int:
        """In-bank RowClone Fast-Parallel-Mode copy latency.

        FPM issues two back-to-back activations (src, then dst as soon as
        the row buffer holds src's data) [52]; the trailing precharge is
        overlapped.  The observable latency is therefore two activation
        delays — consistent with Fig. 7(b), where RowClone probe latencies
        decode against the same 150-cycle threshold as PEI probes.
        """
        return 2 * self.rcd_cycles

    def rowclone_psm_cycles(self, lines_per_row: int) -> int:
        """RowClone Pipelined Serial Mode: a cross-subarray (or cross-bank)
        copy moves the row line by line over the internal bus [52] —
        roughly an order of magnitude slower than FPM."""
        per_line_cycles = 8
        return 2 * self.rcd_cycles + lines_per_row * per_line_cycles
