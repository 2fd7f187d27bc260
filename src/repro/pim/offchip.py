"""Hermes-style perceptron off-chip predictor [116].

The PnM-OffChip comparison point (§5.1) models a PnM system whose dispatch
decision comes from a state-of-the-art off-chip load predictor instead of
the PEI locality monitor: if the predictor believes the data is on-chip
(cache-resident), the PEI executes on the host through the cache
hierarchy, throttling the attack.  Larger LLCs bias the predictor toward
on-chip execution, which is why the PnM-OffChip attack's throughput falls
from 12.64 to 10.64 Mb/s as the LLC grows (§5.3, observation five).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class OffChipPredictorConfig:
    """Perceptron parameters.

    The perceptron sums small integer weights over hashed features of the
    access (page, block) plus an LLC-capacity bias, and predicts *off-chip*
    when the sum exceeds ``threshold``.  Online training nudges weights
    toward the observed outcome, saturating at ``weight_limit``.

    ``cache_pressure_base`` / ``cache_pressure_per_doubling`` model the
    predictor's opportunistic caching: with a probability that grows with
    LLC capacity it predicts *on-chip* regardless of the perceptron sum
    ("the off-chip predictor decides to cache more data when the LLC is
    large", §5.3) — the lever behind PnM-OffChip's throughput dropping
    from 12.64 to 10.64 Mb/s across the LLC sweep.
    """

    table_entries: int = 1024
    threshold: int = 0
    weight_limit: int = 16
    llc_bias_per_doubling: float = 1.5
    base_llc_mb: float = 8.0
    train_step: int = 1
    cache_pressure_base: float = 0.02
    cache_pressure_per_doubling: float = 0.07
    seed: int = 42

    def __post_init__(self) -> None:
        if self.table_entries < 1:
            raise ValueError("table_entries must be >= 1")
        if self.weight_limit < 1:
            raise ValueError("weight_limit must be >= 1")
        if not 0.0 <= self.cache_pressure_base <= 1.0:
            raise ValueError("cache_pressure_base must be in [0, 1]")
        if self.cache_pressure_per_doubling < 0:
            raise ValueError("cache_pressure_per_doubling must be >= 0")


class OffChipPredictor:
    """Predicts whether a load's data is off-chip (in DRAM).

    Features: hashed page number and hashed block number, each indexing a
    signed weight table, plus a capacity bias proportional to
    ``log2(llc_size / base)`` — a bigger LLC makes "it's cached" more
    likely a priori.
    """

    def __init__(self, config: OffChipPredictorConfig, llc_size_mb: float) -> None:
        if llc_size_mb <= 0:
            raise ValueError("llc_size_mb must be positive")
        self.config = config
        self.llc_size_mb = llc_size_mb
        self._page_weights: Dict[int, int] = {}
        self._block_weights: Dict[int, int] = {}
        self._rng = random.Random(config.seed)

    def _index(self, value: int) -> int:
        return (value * 0x9E3779B1) % self.config.table_entries

    def _bias(self) -> float:
        # Positive sum => off-chip.  Larger LLC => negative (on-chip) bias.
        ratio = self.llc_size_mb / self.config.base_llc_mb
        return -self.config.llc_bias_per_doubling * math.log2(max(ratio, 1e-9))

    def _sum(self, addr: int) -> float:
        page = self._index(addr >> 12)
        block = self._index(addr >> 6)
        return (self._page_weights.get(page, 0)
                + self._block_weights.get(block, 0)
                + self._bias())

    def cache_pressure(self) -> float:
        """Probability of an opportunistic on-chip prediction."""
        cfg = self.config
        doublings = max(0.0, math.log2(self.llc_size_mb / cfg.base_llc_mb))
        return min(1.0, cfg.cache_pressure_base
                   + cfg.cache_pressure_per_doubling * doublings)

    def predict_offchip(self, addr: int) -> bool:
        """True if the predictor expects ``addr``'s data to be in DRAM."""
        if self._rng.random() < self.cache_pressure():
            return False
        return self._sum(addr) > self.config.threshold

    def train(self, addr: int, was_offchip: bool) -> None:
        """Online update toward the observed outcome."""
        step = self.config.train_step if was_offchip else -self.config.train_step
        limit = self.config.weight_limit
        for table, index in ((self._page_weights, self._index(addr >> 12)),
                             (self._block_weights, self._index(addr >> 6))):
            weight = table.get(index, 0) + step
            table[index] = max(-limit, min(limit, weight))
