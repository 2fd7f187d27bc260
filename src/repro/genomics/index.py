"""The reference hash table, laid out across DRAM banks.

The read-mapping tool builds one index from the reference genome; every
user's seeding step probes it (§4.3).  Buckets (one per distinct minimizer
hash) are assigned consecutive entry indices and striped across banks —
the bank-interleaving assumption the paper justifies with modern DRAM
address mappings [104-107].  The striping is exactly what the attacker
exploits: *which bank* a probe activates narrows the probed bucket down to
``buckets / num_banks`` candidates, and the narrowing sharpens as the
bank count grows (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.genomics.minimizers import extract_minimizers


@dataclass(frozen=True)
class BucketLocation:
    """Physical placement of one hash-table bucket.

    ``col`` is the bucket's byte offset within its DRAM row: distinct
    buckets sharing a row occupy distinct slots, so the victim's probes
    are distinct addresses (what the PMU locality monitor sees) even when
    they activate the same row (what the attacker sees)."""

    entry_index: int
    bank: int
    row: int
    col: int = 0


class ReferenceIndex:
    """Minimizer hash table over a reference genome.

    Args:
        reference: the reference sequence.
        k, w: minimizer parameters (the paper sweeps seed sizes, §5.1).
        num_banks: banks the table is striped over.
        rows_per_bank_offset: first DRAM row used by the table in each bank.
        entries_per_row: buckets that share one DRAM row within a bank.
    """

    def __init__(self, reference: str, k: int = 15, w: int = 10,
                 num_banks: int = 16, rows_per_bank_offset: int = 1024,
                 entries_per_row: int = 16) -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        if entries_per_row < 1:
            raise ValueError("entries_per_row must be >= 1")
        self.k = k
        self.w = w
        self.num_banks = num_banks
        self.rows_per_bank_offset = rows_per_bank_offset
        self.entries_per_row = entries_per_row
        self._buckets: Dict[int, List[int]] = {}
        for minimizer in extract_minimizers(reference, k=k, w=w):
            self._buckets.setdefault(minimizer.hash_value, []).append(
                minimizer.position)
        # Deterministic entry order: sorted by hash.
        self._entry_of_hash: Dict[int, int] = {
            h: i for i, h in enumerate(sorted(self._buckets))
        }

    # ------------------------------------------------------------------
    # Logical lookups (the mapper's view)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buckets)

    def lookup(self, hash_value: int) -> List[int]:
        """Reference positions whose minimizer matches ``hash_value``."""
        return list(self._buckets.get(hash_value, ()))

    # ------------------------------------------------------------------
    # Physical layout (the attacker's view)
    # ------------------------------------------------------------------

    def entry_index(self, hash_value: int) -> Optional[int]:
        """Flat entry index of the bucket, or None if absent."""
        return self._entry_of_hash.get(hash_value)

    #: Byte slot per bucket within a row (one cache line each).
    BUCKET_SLOT_BYTES = 64

    def location_of_entry(self, entry_index: int) -> BucketLocation:
        """Bank/row/slot placement of a bucket: entries stripe across
        banks, then pack ``entries_per_row`` to a row within each bank."""
        if not 0 <= entry_index < len(self._buckets):
            raise ValueError(f"entry {entry_index} out of range")
        bank = entry_index % self.num_banks
        index_in_bank = entry_index // self.num_banks
        row = self.rows_per_bank_offset + index_in_bank // self.entries_per_row
        col = (index_in_bank % self.entries_per_row) * self.BUCKET_SLOT_BYTES
        return BucketLocation(entry_index=entry_index, bank=bank, row=row,
                              col=col)

    def location_of_hash(self, hash_value: int) -> Optional[BucketLocation]:
        entry = self.entry_index(hash_value)
        if entry is None:
            return None
        return self.location_of_entry(entry)

    @property
    def entries_per_bank(self) -> float:
        """Candidate buckets per bank — the attacker's ambiguity (§5.4):
        halves every time the bank count doubles."""
        return len(self._buckets) / self.num_banks

    def candidates_in_bank(self, bank: int) -> List[int]:
        """Entry indices a leak of ``bank`` narrows the probe down to."""
        if not 0 <= bank < self.num_banks:
            raise ValueError(f"bank {bank} out of range")
        return list(range(bank, len(self._buckets), self.num_banks))

    def restripe(self, num_banks: int) -> "ReferenceIndex":
        """The same logical table laid out over a different bank count
        (Fig. 10's sweep re-stripes, it does not rebuild)."""
        clone = object.__new__(ReferenceIndex)
        clone.k = self.k
        clone.w = self.w
        clone.num_banks = num_banks
        clone.rows_per_bank_offset = self.rows_per_bank_offset
        clone.entries_per_row = self.entries_per_row
        clone._buckets = self._buckets
        clone._entry_of_hash = self._entry_of_hash
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        return clone
