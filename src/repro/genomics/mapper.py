"""The end-to-end read mapper: seeding -> chaining -> alignment (§4.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.genomics.alignment import AlignmentResult, banded_align
from repro.genomics.chaining import Anchor, Chain, chain_anchors
from repro.genomics.index import ReferenceIndex
from repro.genomics.minimizers import extract_minimizers, reverse_complement


@dataclass(frozen=True)
class MappingResult:
    """Where a read mapped, and how well."""

    position: int
    chain: Chain
    alignment: AlignmentResult

    @property
    def score(self) -> int:
        return self.alignment.score


class ReadMapper:
    """Maps reads against a :class:`ReferenceIndex`.

    The seeding step probes the shared hash table — on a PiM-enabled
    system those probes are the DRAM activations the §4.3 attacker
    observes (see :class:`repro.genomics.pim_mapper.PimReadMapper`).
    """

    def __init__(self, reference: str, index: ReferenceIndex,
                 max_hits_per_seed: int = 64, band: int = 32) -> None:
        self.reference = reference
        self.index = index
        self.max_hits_per_seed = max_hits_per_seed
        self.band = band

    def seed(self, read: str) -> List[Anchor]:
        """Seeding: extract minimizers and collect index hits as anchors."""
        anchors: List[Anchor] = []
        for minimizer in extract_minimizers(read, k=self.index.k,
                                            w=self.index.w):
            positions = self.index.lookup(minimizer.hash_value)
            if not positions or len(positions) > self.max_hits_per_seed:
                continue  # absent or too repetitive to be informative
            for ref_pos in positions:
                anchors.append(Anchor(read_pos=minimizer.position,
                                      ref_pos=ref_pos, length=self.index.k))
        return anchors

    def map_read(self, read: str) -> Optional[MappingResult]:
        """Full pipeline; returns None when the read does not map.

        Reads sequenced from the reverse strand are handled by retrying
        with the reverse complement (minimap2 does this via canonical
        k-mer hashing; the retry exercises the identical seeding path)."""
        result = self._map_oriented(read)
        if result is not None:
            return result
        return self._map_oriented(reverse_complement(read))

    def _map_oriented(self, read: str) -> Optional[MappingResult]:
        anchors = self.seed(read)
        chain = chain_anchors(anchors)
        if chain is None:
            return None
        # Align the read against a tight reference window: the chain pins
        # the read's start on the reference; a small slack absorbs indels.
        slack = 8
        start = max(0, chain.ref_start - chain.read_start - slack // 2)
        end = min(len(self.reference), start + len(read) + slack)
        target = self.reference[start:end]
        alignment = banded_align(read, target, band=self.band)
        return MappingResult(position=start, chain=chain, alignment=alignment)
