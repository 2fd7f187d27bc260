"""PnM-OffChip: PEI attack against a predictor-guarded PnM system (§5.1 v).

Same protocol as IMPACT-PnM, but the architecture dispatches each PEI with
a Hermes-style off-chip predictor [116] instead of the PMU's (bypassable)
locality monitor: if the predictor believes the data is on-chip, the PEI
executes on the host CPU through the cache hierarchy.

Consequences for the attacker (§5.3, observation five):

- host-executed probes are slower (cache lookups) and, once the line is
  cached, stop observing DRAM at all — the receiver detects the giveaway
  (an implausibly fast probe) and pays a ``clflush`` to recover;
- larger LLCs bias the predictor toward on-chip execution, so throughput
  falls from ~12.6 Mb/s to ~10.6 Mb/s as the LLC grows.
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.impact_pnm import ImpactPnmChannel
from repro.sim.scheduler import Context
from repro.system import System

#: A probe faster than this never reached DRAM: it was served by a cache
#: on the host path (L1/L2 hit), so the row-buffer observation is void.
CACHE_HIT_GIVEAWAY_CYCLES = 60


class PnmOffchipChannel(ImpactPnmChannel):
    """IMPACT-PnM against a PnM architecture with an off-chip predictor."""

    name = "PnM-OffChip"

    def __init__(self, system: System, batch_size: int = 4,
                 banks: Optional[List[int]] = None,
                 init_row: int = 100, interference_row: int = 200,
                 threshold_cycles: int = 150) -> None:
        super().__init__(system, batch_size=batch_size, banks=banks,
                         init_row=init_row, interference_row=interference_row,
                         threshold_cycles=threshold_cycles)
        if system.offchip_predictor is None:
            system.enable_offchip_predictor()

    def _sender_op(self, ctx: Context, sys_: System, bank_index: int) -> None:
        sys_.pei_op_predicted(ctx, self._intf_addrs[bank_index],
                              requestor="sender")

    def _receiver_init(self, ctx: Context, sys_: System, bank_index: int) -> None:
        sys_.pei_op_predicted(ctx, self._init_addrs[bank_index],
                              requestor="receiver")

    def _receiver_probe(self, ctx: Context, sys_: System, bank_index: int) -> None:
        sys_.pei_op_predicted(ctx, self._init_addrs[bank_index],
                              requestor="receiver")

    def _receiver_recover(self, ctx: Context, sys_: System, bank_index: int,
                          latency: int) -> None:
        """If the probe was served from a cache, flush the line and redo
        the bank initialization so the next round observes DRAM again."""
        if latency < CACHE_HIT_GIVEAWAY_CYCLES:
            sys_.clflush(ctx, core=1, addr=self._init_addrs[bank_index],
                         requestor="receiver")
