"""Security evaluation: do the §6 defenses actually kill the channel?

A defense *eliminates* the row-buffer timing channel when the receiver's
decode degenerates to coin flipping (error rate ~ 0.5 on random messages,
Shannon capacity ~ 0 bits/symbol) or the access is denied outright (MPR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.attacks.channel import ChannelResult, CovertChannel
from repro.config import SystemConfig
from repro.dram.controller import PartitionViolationError
from repro.system import System


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def channel_capacity_bits(error_rate: float) -> float:
    """Shannon capacity of a binary symmetric channel with crossover
    ``error_rate`` (bits per transmitted bit)."""
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must be within [0, 1]")
    return 1.0 - _binary_entropy(error_rate)


@dataclass
class DefenseSecurityReport:
    """Outcome of attacking a defended system."""

    defense: str
    attack: str
    blocked: bool  # access denied (MPR)
    result: Optional[ChannelResult] = None

    @property
    def error_rate(self) -> float:
        if self.blocked or self.result is None:
            return 0.5  # no information flows
        return self.result.error_rate

    @property
    def capacity_bits_per_symbol(self) -> float:
        if self.blocked:
            return 0.0
        return channel_capacity_bits(self.error_rate)

    @property
    def channel_eliminated(self) -> bool:
        """< 0.05 bits/symbol: statistically useless to the attacker."""
        return self.capacity_bits_per_symbol < 0.05

    def summary(self) -> str:
        if self.blocked:
            return (f"{self.defense} vs {self.attack}: access denied "
                    f"(partition violation) — channel eliminated")
        return (f"{self.defense} vs {self.attack}: error {self.error_rate:.2%}, "
                f"capacity {self.capacity_bits_per_symbol:.3f} b/sym, "
                f"{'eliminated' if self.channel_eliminated else 'SURVIVES'}")


ChannelFactory = Callable[[System], CovertChannel]


def evaluate_channel_under_defense(channel_factory: ChannelFactory,
                                   defense: str,
                                   base_config: Optional[SystemConfig] = None,
                                   bits: int = 256,
                                   seed: int = 0) -> DefenseSecurityReport:
    """Mount an attack against a defended system.

    ``defense``: ``open`` (undefended baseline), ``crp``, ``ctd``, or
    ``mpr`` (sender and receiver confined to disjoint bank partitions).
    """
    base = base_config or SystemConfig.paper_default()
    if defense == "mpr":
        system = System(base)
        half = system.num_banks // 2
        system.controller.partition_banks("sender", range(half))
        system.controller.partition_banks("receiver",
                                          range(half, system.num_banks))
        channel = channel_factory(system)
        try:
            result = channel.transmit_random(bits, seed)
        except PartitionViolationError:
            return DefenseSecurityReport(defense=defense, attack=channel.name,
                                         blocked=True)
        return DefenseSecurityReport(defense=defense, attack=channel.name,
                                     blocked=False, result=result)
    system = System(base.with_defense(defense))
    channel = channel_factory(system)
    result = channel.transmit_random(bits, seed)
    return DefenseSecurityReport(defense=defense, attack=channel.name,
                                 blocked=False, result=result)
