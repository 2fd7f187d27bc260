"""DRAMA-style row-buffer covert channels through the cache hierarchy [68].

Two variants, matching the §5.1 comparison points:

- **DRAMA-clflush** — sender and receiver force their loads to DRAM with
  ``clflush`` (flush-after-use, so the timed load of the next round
  misses).  The flush probes the LLC; a dirty line puts the write-back on
  the critical path (§3.2).
- **DRAMA-eviction** — ``clflush`` replaced with eviction-set walks.
  Eviction is *probabilistic* under SRRIP (Table 1), so failed evictions
  surface as decode errors, and its cost scales with LLC ways and lookup
  latency — the effect Figs. 2/3/8 quantify.

Both run in lockstep over a single shared DRAM bank: the sender encodes a
1 by opening *its* row (a conflict for the receiver's row), a 0 by staying
idle (the receiver's own row stays open => hit).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.attacks.channel import (
    DECODE_CYCLES,
    LOOP_OVERHEAD_CYCLES,
    SEM_OP_CYCLES,
    ChannelResult,
    CovertChannel,
)
from repro.sim.scheduler import Barrier, Context, Scheduler, Semaphore
from repro.system import System

#: Serialization (mfence/lfence) around flushes and timed loads.
FENCE_CYCLES = 30

#: Sender-side idle slot when transmitting a 0.
IDLE_CYCLES = 4


class DramaClflushChannel(CovertChannel):
    """DRAMA covert channel using clflush as the cache-bypass primitive."""

    name = "DRAMA-clflush"

    def __init__(self, system: System, bank: int = 0, sender_row: int = 300,
                 receiver_row: int = 310, threshold_cycles: int = 150,
                 probes_per_bit: int = 3) -> None:
        super().__init__(system, threshold_cycles)
        if sender_row == receiver_row:
            raise ValueError("sender and receiver rows must differ")
        if probes_per_bit < 1:
            raise ValueError("probes_per_bit must be >= 1")
        self.bank = bank
        self.sender_addr = system.address_of(bank, sender_row)
        self.receiver_addr = system.address_of(bank, receiver_row)
        self.probes_per_bit = probes_per_bit

    # Subclass hook: how each side pushes its line out of the caches.
    def _sender_bypass(self, ctx: Context, sys_: System) -> None:
        sys_.clflush(ctx, core=0, addr=self.sender_addr, requestor="sender")
        ctx.advance(FENCE_CYCLES)

    def _receiver_bypass(self, ctx: Context, sys_: System) -> None:
        sys_.clflush(ctx, core=1, addr=self.receiver_addr,
                     requestor="receiver")
        ctx.advance(FENCE_CYCLES)

    def transmit(self, bits: Sequence[int]) -> ChannelResult:
        message = self.check_bits(bits)
        system = self.system
        sched = Scheduler()
        start_barrier = Barrier(parties=2, name="start")
        sent_sem = Semaphore(name="sent")
        probed_sem = Semaphore(initial=1, name="probed")
        received: List[int] = []
        probe_latencies: List[int] = []
        window = {"t0": 0, "t1": 0, "noise_mark": 0}

        def sender(ctx: Context, sys_: System):
            # Warm round: line starts uncached, row state unknown.
            yield start_barrier.wait()
            for bit in message:
                ctx.advance(SEM_OP_CYCLES)
                yield probed_sem.acquire()
                if bit:
                    sys_.load(ctx, core=0, addr=self.sender_addr,
                              requestor="sender")
                    self._sender_bypass(ctx, sys_)
                else:
                    ctx.advance(IDLE_CYCLES)
                ctx.advance(LOOP_OVERHEAD_CYCLES + SEM_OP_CYCLES)
                yield sent_sem.release()

        def receiver(ctx: Context, sys_: System):
            # Open the receiver's row so the first 0-bit decodes as a hit,
            # and flush the line so the first timed load reaches DRAM.
            sys_.load(ctx, core=1, addr=self.receiver_addr,
                      requestor="receiver")
            self._receiver_bypass(ctx, sys_)
            yield start_barrier.wait()
            window["t0"] = ctx.now
            window["noise_mark"] = ctx.now
            timer = sys_.new_timer()
            for _bit in message:
                ctx.advance(SEM_OP_CYCLES)
                yield sent_sem.acquire()
                sys_.noise.run(window["noise_mark"], ctx.now)
                window["noise_mark"] = ctx.now
                # No scheduler checkpoint inside the probe loop: the sender
                # is blocked on probed_sem for the whole bit, so there is
                # nothing to interleave with (the batching-safety rule;
                # see EXPERIMENTS.md).
                worst = 0
                for probe in range(self.probes_per_bit):
                    timer.start(ctx)
                    sys_.load(ctx, core=1, addr=self.receiver_addr,
                              requestor="receiver")
                    latency = timer.stop(ctx)
                    worst = max(worst, latency)
                    self._receiver_bypass(ctx, sys_)
                probe_latencies.append(worst)
                received.append(self.decode(worst))
                ctx.advance(DECODE_CYCLES + LOOP_OVERHEAD_CYCLES + SEM_OP_CYCLES)
                yield probed_sem.release()
            window["t1"] = ctx.now

        sched.spawn(sender, system, name="sender")
        sched.spawn(receiver, system, name="receiver")
        sched.run()
        cycles = window["t1"] - window["t0"]
        return self.make_result(message, received, cycles, probe_latencies)


class DramaEvictionChannel(DramaClflushChannel):
    """DRAMA covert channel using eviction sets instead of clflush.

    Eviction-set lines are chosen congruent in the LLC set but landing in
    *other* DRAM banks, so walking them does not disturb the target bank's
    row buffer.  That requires an address mapping where bank bits are not
    fully determined by the LLC set bits — the ``xor`` mapping (the kind
    of bank hash DRAMA reverse-engineers).  ``eviction_factor`` scales the
    walk beyond one access per way, the "much higher actual latency"
    caveat of §3.3.
    """

    name = "DRAMA-eviction"

    def __init__(self, system: System, bank: int = 0, sender_row: int = 300,
                 receiver_row: int = 310, threshold_cycles: int = 150,
                 probes_per_bit: int = 1, eviction_factor: int = 2) -> None:
        # A single probe per bit: each probe already drags a full
        # eviction walk with it, so repeating it is unaffordable.
        super().__init__(system, bank=bank, sender_row=sender_row,
                         receiver_row=receiver_row,
                         threshold_cycles=threshold_cycles,
                         probes_per_bit=probes_per_bit)
        if eviction_factor < 1:
            raise ValueError("eviction_factor must be >= 1")
        self.eviction_factor = eviction_factor
        self._sender_set = self._build_safe_eviction_set(self.sender_addr)
        self._receiver_set = self._build_safe_eviction_set(self.receiver_addr)

    def _build_safe_eviction_set(self, addr: int) -> List[int]:
        """LLC-set-congruent addresses that avoid the channel's bank."""
        hierarchy = self.system.hierarchy
        mapper = self.system.controller.mapper
        size = hierarchy.config.llc_ways * self.eviction_factor
        stride = hierarchy.llc_set_stride()
        capacity = self.system.controller.config.geometry.capacity_bytes
        base = hierarchy.llc.line_addr(addr)
        result: List[int] = []
        k = 1
        attempts = 0
        max_attempts = size * 64
        while len(result) < size and attempts < max_attempts:
            candidate = (base + k * stride) % capacity
            k += 1
            attempts += 1
            if candidate == base:
                continue
            if mapper.decode(candidate).bank == self.bank:
                continue
            if candidate not in result:
                result.append(candidate)
        if len(result) < size:
            raise ValueError(
                "cannot build a bank-safe eviction set under this address "
                "mapping; use the 'xor' mapping (SystemConfig(mapping='xor'))"
            )
        return result

    def _walk(self, ctx: Context, sys_: System, eviction_set: List[int],
              core: int, requestor: str) -> None:
        # Batched: the peer thread is blocked on the channel's semaphores
        # whenever a walk runs, so eliding per-load checkpoints is safe.
        sys_.load_many(ctx, core=core, addrs=eviction_set,
                       requestor=requestor)

    def _sender_bypass(self, ctx: Context, sys_: System) -> None:
        self._walk(ctx, sys_, self._sender_set, core=0, requestor="sender")

    def _receiver_bypass(self, ctx: Context, sys_: System) -> None:
        self._walk(ctx, sys_, self._receiver_set, core=1, requestor="receiver")
