"""The §3.3 motivation experiments: cache-mediated vs direct-access channels.

Two attacks over one shared DRAM bank, measured across LLC configurations
(Figs. 2 and 3):

- **Baseline (eviction) attack** — to send one bit through the row buffer,
  the sender first evicts its line with one access per LLC way, then loads
  it (planting a row conflict); the receiver probes its own row.  The
  eviction walk's cost grows with both LLC size (lookup latency) and ways
  (number of accesses).
- **Direct-memory-access attack** — the same bit needs exactly one memory
  request on each side, no cache interaction at all; its throughput is
  flat across every cache configuration.

Following §3.3, the eviction walk is modeled at the paper's granularity —
N requests for an N-way cache ("the actual eviction latency can be much
higher" with modern replacement policies; the full-protocol channels in
:mod:`repro.attacks.drama` model that effect).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.attacks.channel import (
    DECODE_CYCLES,
    LOOP_OVERHEAD_CYCLES,
    ChannelResult,
    CovertChannel,
    random_bits,
)
from repro.sim.scheduler import Context, Scheduler
from repro.system import System

#: Lightweight per-bit handshake (shared-memory flag spin, not a futex).
HANDSHAKE_CYCLES = 40


#: Decode threshold for the §3.3 attacks: their probes are *raw* memory
#: requests (no uncore/PEI network), so hit/conflict land at ~59/~129
#: cycles instead of Fig. 7's ~114/~184; the midpoint is ~94.
SEC33_THRESHOLD_CYCLES = 94


class DirectAccessAttack(CovertChannel):
    """§3.3's direct-memory-access attack: one request per bit, no caches."""

    name = "direct-access"

    def __init__(self, system: System, bank: int = 0, sender_row: int = 300,
                 receiver_row: int = 310,
                 threshold_cycles: int = SEC33_THRESHOLD_CYCLES) -> None:
        super().__init__(system, threshold_cycles)
        self.bank = bank
        self.sender_addr = system.address_of(bank, sender_row)
        self.receiver_addr = system.address_of(bank, receiver_row)

    def transmit(self, bits: Sequence[int]) -> ChannelResult:
        message = self.check_bits(bits)
        system = self.system
        received: List[int] = []
        latencies: List[int] = []
        sched = Scheduler()
        window = {}

        def body(ctx: Context, sys_: System):
            # Receiver opens its row once.
            sys_.controller.access(self.receiver_addr, ctx.now,
                                   requestor="receiver")
            timer = sys_.new_timer()
            window["t0"] = ctx.now
            for bit in message:
                # Sender's turn: one direct request for a 1, nothing for 0.
                if bit:
                    result = sys_.controller.access(self.sender_addr, ctx.now,
                                                    requestor="sender")
                    ctx.advance_to(result.finish)
                ctx.advance(HANDSHAKE_CYCLES)
                # Receiver's turn: one timed direct request.
                timer.start(ctx)
                probe = sys_.controller.access(self.receiver_addr, ctx.now,
                                               requestor="receiver")
                ctx.advance_to(probe.finish)
                latency = timer.stop(ctx)
                latencies.append(latency)
                received.append(self.decode(latency))
                ctx.advance(DECODE_CYCLES + LOOP_OVERHEAD_CYCLES)
                yield None
            window["t1"] = ctx.now

        sched.spawn(body, system, name="direct")
        sched.run()
        cycles = window["t1"] - window["t0"]
        return self.make_result(message, received, cycles, latencies)


class BaselineEvictionAttack(CovertChannel):
    """§3.3's baseline attack: evict via the cache hierarchy, then access."""

    name = "baseline-eviction"

    def __init__(self, system: System, bank: int = 0, sender_row: int = 300,
                 receiver_row: int = 310,
                 threshold_cycles: int = SEC33_THRESHOLD_CYCLES) -> None:
        super().__init__(system, threshold_cycles)
        self.bank = bank
        self.sender_addr = system.address_of(bank, sender_row)
        self.receiver_addr = system.address_of(bank, receiver_row)
        self.eviction_latencies: List[int] = []

    def _evict(self, ctx: Context, sys_: System, addr: int,
               eviction_set: List[int]) -> None:
        start = ctx.now
        sys_.load_many(ctx, core=0, addrs=eviction_set, requestor="attacker")
        self.eviction_latencies.append(ctx.now - start)

    def transmit(self, bits: Sequence[int]) -> ChannelResult:
        message = self.check_bits(bits)
        system = self.system
        eviction_set = system.hierarchy.build_eviction_set(self.sender_addr)
        received: List[int] = []
        latencies: List[int] = []
        sched = Scheduler()
        window = {}

        def body(ctx: Context, sys_: System):
            sys_.controller.access(self.receiver_addr, ctx.now,
                                   requestor="receiver")
            # Warm the sender's line so there is something to evict.
            sys_.load(ctx, core=0, addr=self.sender_addr, requestor="sender")
            timer = sys_.new_timer()
            window["t0"] = ctx.now
            for bit in message:
                if bit:
                    self._evict(ctx, sys_, self.sender_addr, eviction_set)
                    sys_.load(ctx, core=0, addr=self.sender_addr,
                              requestor="sender")
                ctx.advance(HANDSHAKE_CYCLES)
                timer.start(ctx)
                probe = sys_.controller.access(self.receiver_addr, ctx.now,
                                               requestor="receiver")
                ctx.advance_to(probe.finish)
                latency = timer.stop(ctx)
                latencies.append(latency)
                received.append(self.decode(latency))
                ctx.advance(DECODE_CYCLES + LOOP_OVERHEAD_CYCLES)
                yield None
            window["t1"] = ctx.now

        sched.spawn(body, system, name="baseline")
        sched.run()
        cycles = window["t1"] - window["t0"]
        return self.make_result(message, received, cycles, latencies)

    def mean_eviction_latency(self) -> float:
        if not self.eviction_latencies:
            return 0.0
        return sum(self.eviction_latencies) / len(self.eviction_latencies)


def run_sec33_point(system: System, bits: int = 512,
                    seed: int = 0) -> "dict":
    """One (LLC config) point: both attacks + the eviction latency."""
    message = random_bits(bits, seed)
    direct = DirectAccessAttack(system)
    direct_result = direct.transmit(message)
    baseline = BaselineEvictionAttack(system)
    baseline_result = baseline.transmit(message)
    return {
        "direct_mbps": direct_result.throughput_mbps,
        "baseline_mbps": baseline_result.throughput_mbps,
        "eviction_latency_cycles": baseline.mean_eviction_latency(),
        "direct_error_rate": direct_result.error_rate,
        "baseline_error_rate": baseline_result.error_rate,
    }
