"""IMPACT attacks: covert channels, side channel, and comparison points.

The seven §5 covert channels:

==================  ===========================================  =========
Class               Primitive                                    Section
==================  ===========================================  =========
DramaClflushChannel clflush through the LLC                      §5.1 (i)
DramaEvictionChannel eviction sets (xor-mapped banks)            §5.1 (ii)
(analytical)        Streamline flushless cache channel           §5.1 (iii)
DmaEngineChannel    user-space DMA engine                        §5.1 (iv)
PnmOffchipChannel   PEI behind an off-chip predictor             §5.1 (v)
ImpactPnmChannel    PEI to bank PCUs (locality-monitor bypass)   §4.1 (vi)
ImpactPumChannel    masked multi-bank RowClone                   §4.2 (vii)
==================  ===========================================  =========

plus the §3.3 motivation attacks (:mod:`repro.attacks.sec33`), the Table 1
primitive layer (:mod:`repro.attacks.primitives`), the analytical
Streamline upper bound (:mod:`repro.attacks.analytical`), and the §4.3
read-mapping side channel (:mod:`repro.attacks.sidechannel`).
"""

from dataclasses import replace
from typing import Callable, Dict

from repro.attacks.analytical import (
    ChannelCostParameters,
    streamline_upper_bound_mbps,
)
from repro.attacks.channel import (
    DEFAULT_THRESHOLD_CYCLES,
    ChannelResult,
    CovertChannel,
    random_bits,
)
from repro.attacks.dma import DmaEngineChannel
from repro.attacks.drama import DramaClflushChannel, DramaEvictionChannel
from repro.attacks.drama_spy import (
    DramaKeystrokeSpy,
    KeystrokeSpyResult,
    poisson_keystrokes,
)
from repro.attacks.impact_pnm import ImpactPnmChannel
from repro.attacks.inference import (
    IdentificationResult,
    ReadIdentifier,
    RegionScore,
    longest_common_subsequence,
)
from repro.attacks.impact_pum import ImpactPumChannel
from repro.attacks.multi_pair import MultiPairResult, PairOutcome, run_multi_pair
from repro.attacks.pnm_offchip import PnmOffchipChannel
from repro.attacks.primitives import (
    TABLE1,
    PrimitiveProperties,
    measure_all,
)
from repro.attacks.sec33 import (
    BaselineEvictionAttack,
    DirectAccessAttack,
    run_sec33_point,
)
from repro.attacks.recon import AddressReconnaissance, BankFunctionModel
from repro.attacks.streamline import StreamlineChannel
from repro.attacks.sidechannel import (
    ReadMappingSideChannel,
    SideChannelConfig,
    SideChannelResult,
    fake_schedule,
)
from repro.config import SystemConfig
from repro.system import System

#: The seven covert channels by their command-line names.
ATTACKS: Dict[str, Callable[[System], CovertChannel]] = {
    "impact-pnm": ImpactPnmChannel,
    "impact-pum": ImpactPumChannel,
    "dma": DmaEngineChannel,
    "drama-clflush": DramaClflushChannel,
    "drama-eviction": DramaEvictionChannel,
    "pnm-offchip": PnmOffchipChannel,
    "streamline": StreamlineChannel,
}


def channel_config(attack: str, config: SystemConfig) -> SystemConfig:
    """``config`` as the ``attack`` channel needs it: DRAMA-eviction
    builds bank-safe eviction sets only under the xor mapping."""
    if attack == "drama-eviction" and config.mapping != "xor":
        return replace(config, mapping="xor")
    return config


__all__ = [
    "ATTACKS",
    "AddressReconnaissance",
    "BankFunctionModel",
    "BaselineEvictionAttack",
    "ChannelCostParameters",
    "ChannelResult",
    "CovertChannel",
    "DEFAULT_THRESHOLD_CYCLES",
    "DirectAccessAttack",
    "DmaEngineChannel",
    "DramaClflushChannel",
    "DramaEvictionChannel",
    "DramaKeystrokeSpy",
    "KeystrokeSpyResult",
    "MultiPairResult",
    "PairOutcome",
    "IdentificationResult",
    "ImpactPnmChannel",
    "ImpactPumChannel",
    "PnmOffchipChannel",
    "PrimitiveProperties",
    "ReadIdentifier",
    "ReadMappingSideChannel",
    "RegionScore",
    "SideChannelConfig",
    "SideChannelResult",
    "StreamlineChannel",
    "TABLE1",
    "channel_config",
    "fake_schedule",
    "longest_common_subsequence",
    "poisson_keystrokes",
    "measure_all",
    "random_bits",
    "run_multi_pair",
    "run_sec33_point",
    "streamline_upper_bound_mbps",
]
