"""IMPACT reproduction: PiM-based main-memory timing covert and side channels.

A full-system reproduction of *"Amplifying Main Memory-Based Timing Covert
and Side Channels using Processing-in-Memory Operations"* (DSN 2025):
a cycle-accounting simulator of a PiM-enabled machine (DRAM banks and row
buffers, cache hierarchy, PEI and RowClone engines), the seven
covert-channel attacks of §5, the read-mapping side channel of §4.3, and
the three defenses of §6.

Quickstart::

    from repro import System, SystemConfig
    from repro.attacks import ImpactPnmChannel

    system = System(SystemConfig.paper_default())
    result = ImpactPnmChannel(system).transmit_random(bits=1024)
    print(result.throughput_mbps, result.error_rate)
"""

from repro.config import DMAConfig, NoiseConfig, SystemConfig
from repro.system import BackgroundNoise, System

__version__ = "1.0.0"

__all__ = [
    "BackgroundNoise",
    "DMAConfig",
    "NoiseConfig",
    "System",
    "SystemConfig",
    "__version__",
]
