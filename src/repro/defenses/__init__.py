"""The three §6 defenses and their security evaluation.

- **MPR** (bank-level memory partitioning) — exclusive bank ownership;
  implemented in the controller (:meth:`MemoryController.partition_banks`).
- **CRP** (closed-row policy) — ``SystemConfig.with_defense("crp")``.
- **CTD** (constant-time DRAM access) — ``SystemConfig.with_defense("ctd")``.

:mod:`repro.defenses.security` verifies each defense actually eliminates
the covert channel (error rate collapses to coin-flipping / the access is
denied); :mod:`repro.workloads.runner` measures the §6 performance cost.
"""

from repro.defenses.security import (
    DefenseSecurityReport,
    channel_capacity_bits,
    evaluate_channel_under_defense,
)

__all__ = [
    "DefenseSecurityReport",
    "channel_capacity_bits",
    "evaluate_channel_under_defense",
]
