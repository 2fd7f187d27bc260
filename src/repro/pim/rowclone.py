"""RowClone — the PuM substrate [52].

User code names a source range, a destination range, and a bank mask; the
memory controller fans the request out as parallel in-bank Fast Parallel
Mode copies, one per set mask bit (§4.2).  The transaction is atomic at the
controller (§5.1), and its *latency as observed by the issuer* depends on
the row-buffer state of the touched banks — which is exactly the signal the
IMPACT-PuM receiver decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dram.bank import AccessKind
from repro.dram.controller import MemoryController, MemoryResult


@dataclass(frozen=True)
class RowCloneConfig:
    """RowClone interface cost model.

    ``issue_cycles`` is the core-side cost of composing/issuing the request
    descriptor; ``network_cycles`` is the one-way path to the memory
    controller (paid both ways) — shorter than PEI's, because RowClone is
    executed by the controller itself rather than by per-bank PCUs.  A
    single request covers any number of banks — that is the parallelism
    advantage over PEI (§4.2, "Advantage over IMPACT-PnM").
    """

    issue_cycles: int = 4
    network_cycles: int = 15

    def __post_init__(self) -> None:
        if self.issue_cycles < 0 or self.network_cycles < 0:
            raise ValueError("cycle costs must be >= 0")


@dataclass(frozen=True)
class RowCloneResult:
    """Outcome of one (multi-bank) RowClone operation."""

    issued: int
    finish: int
    per_bank: List[MemoryResult]

    @property
    def latency(self) -> int:
        return self.finish - self.issued

    @property
    def banks(self) -> List[int]:
        return [r.bank for r in self.per_bank]

    @property
    def conflicts(self) -> List[int]:
        """Banks whose copy hit a perturbed row buffer (paid extra tRP)."""
        return [r.bank for r in self.per_bank if r.kind is AccessKind.CONFLICT]


class RowCloneEngine:
    """User-space entry point for masked multi-bank RowClone."""

    def __init__(self, config: RowCloneConfig,
                 controller: MemoryController) -> None:
        self.config = config
        self.controller = controller
        self.operations = 0

    def clone(self, src_addr: int, dst_addr: int, mask: int, issued: int, *,
              requestor: str = "rowclone") -> RowCloneResult:
        """Copy row ``src`` to row ``dst`` in every bank selected by
        ``mask``; blocks until the whole atomic transaction completes."""
        cfg = self.config
        t = issued + cfg.issue_cycles + cfg.network_cycles
        per_bank = self.controller.rowclone(src_addr, dst_addr, mask, t,
                                            requestor=requestor)
        self.operations += 1
        if per_bank:
            done = max(r.finish for r in per_bank)
        else:
            done = t
        finish = done + cfg.network_cycles
        return RowCloneResult(issued=issued, finish=finish, per_bank=per_bank)

    @staticmethod
    def mask_from_bits(bits: List[int]) -> int:
        """Encode a bit vector as a bank mask (bit i of the message selects
        bank i — the sender's encoding, §4.2 step 2)."""
        mask = 0
        for i, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError(f"message bits must be 0/1, got {bit!r}")
            if bit:
                mask |= 1 << i
        return mask
