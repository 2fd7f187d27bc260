"""IMPACT-PnM: the PEI-based covert channel (§4.1, Listing 1).

Protocol:

1. The receiver initializes one predetermined row per DRAM bank with PEIs
   (bypassing the locality monitor via the ignore flag), then both sides
   synchronize on a barrier.
2. The sender transmits batches of M bits, one bank per bit: logic-1 =>
   PEI to a *different* row of that bank (row-buffer conflict planted);
   logic-0 => NOP.  After each batch it executes a memory fence and posts
   a semaphore.
3. The receiver blocks on the semaphore, then probes each bank of the
   batch with a PEI to the *initialized* row, timing it with rdtscp:
   above-threshold latency => the sender perturbed the bank => 1.

The semaphore pipelines sender and receiver: while the receiver probes
batch k, the sender already transmits batch k+1 on the next banks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.attacks.channel import (
    DECODE_CYCLES,
    LOOP_OVERHEAD_CYCLES,
    SEM_OP_CYCLES,
    ChannelResult,
    CovertChannel,
)
from repro.sim.scheduler import Barrier, Context, Scheduler, Semaphore
from repro.system import System

#: Cost of the sender's NOP slot for a logic-0 (issue-width bubble).
NOP_CYCLES = 2


class ImpactPnmChannel(CovertChannel):
    """The IMPACT-PnM covert channel (§4.1)."""

    name = "IMPACT-PnM"

    def __init__(self, system: System, batch_size: int = 4,
                 banks: Optional[List[int]] = None,
                 init_row: int = 100, interference_row: int = 200,
                 threshold_cycles: int = 150) -> None:
        super().__init__(system, threshold_cycles)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if init_row == interference_row:
            raise ValueError("init and interference rows must differ")
        self.batch_size = batch_size
        self.banks = banks if banks is not None else list(range(system.num_banks))
        if not self.banks:
            raise ValueError("need at least one bank")
        if batch_size > len(self.banks):
            # One bank holds one bit of row-buffer evidence per batch; a
            # batch wider than the bank set would overwrite itself.
            raise ValueError(
                f"batch_size {batch_size} exceeds the {len(self.banks)} "
                f"available banks")
        self._init_addrs = [system.address_of(b, init_row) for b in self.banks]
        self._intf_addrs = [system.address_of(b, interference_row)
                            for b in self.banks]

    # ------------------------------------------------------------------
    # Hooks (overridden by the PnM-OffChip baseline)
    # ------------------------------------------------------------------

    def _sender_op(self, ctx: Context, sys_: System, bank_index: int) -> None:
        """Plant a row-buffer conflict in the bank (a logic-1)."""
        sys_.pei_op(ctx, self._intf_addrs[bank_index], set_ignore=True,
                    requestor="sender")

    def _receiver_init(self, ctx: Context, sys_: System, bank_index: int) -> None:
        """Open the bank's predetermined row (step 1)."""
        sys_.pei_op(ctx, self._init_addrs[bank_index], set_ignore=True,
                    requestor="receiver")

    def _receiver_probe(self, ctx: Context, sys_: System, bank_index: int) -> None:
        """Re-activate the initialized row; the caller times this."""
        sys_.pei_op(ctx, self._init_addrs[bank_index], set_ignore=True,
                    requestor="receiver")

    def _receiver_recover(self, ctx: Context, sys_: System, bank_index: int,
                          latency: int) -> None:
        """Post-probe fixup hook (no-op for plain IMPACT-PnM)."""

    # ------------------------------------------------------------------

    def transmit(self, bits: Sequence[int]) -> ChannelResult:
        message = self.check_bits(bits)
        system = self.system
        sched = Scheduler()
        start_barrier = Barrier(parties=2, name="start")
        sem = Semaphore(name="batch-ready")
        # Backpressure: the sender may run at most (banks/batch - 1)
        # batches ahead, or it would wrap around and perturb banks the
        # receiver has not probed yet.
        credit_count = max(1, len(self.banks) // self.batch_size - 1)
        credits = Semaphore(initial=credit_count, name="credits")
        received: List[int] = []
        probe_latencies: List[int] = []
        window = {"t0": 0, "t1": 0, "noise_mark": 0}
        batches = [message[i:i + self.batch_size]
                   for i in range(0, len(message), self.batch_size)]

        def sender(ctx: Context, sys_: System):
            yield start_barrier.wait()
            bank_cursor = 0
            for batch in batches:
                ctx.advance(SEM_OP_CYCLES)
                yield credits.acquire()
                for bit in batch:
                    bank_index = bank_cursor % len(self.banks)
                    if bit:
                        self._sender_op(ctx, sys_, bank_index)
                    else:
                        ctx.advance(NOP_CYCLES)
                    ctx.advance(LOOP_OVERHEAD_CYCLES)
                    bank_cursor += 1
                    yield None
                ctx.fence()
                ctx.advance(SEM_OP_CYCLES)
                yield sem.release()

        def receiver(ctx: Context, sys_: System):
            # Step 1: initialize every used bank (opens init_row).
            for bank_index in range(len(self.banks)):
                self._receiver_init(ctx, sys_, bank_index)
                yield None
            yield start_barrier.wait()
            window["t0"] = ctx.now
            window["noise_mark"] = ctx.now
            timer = sys_.new_timer()
            bank_cursor = 0
            for batch in batches:
                ctx.advance(SEM_OP_CYCLES)
                yield sem.acquire()
                for _bit in batch:
                    bank_index = bank_cursor % len(self.banks)
                    sys_.noise.run(window["noise_mark"], ctx.now)
                    window["noise_mark"] = ctx.now
                    timer.start(ctx)
                    self._receiver_probe(ctx, sys_, bank_index)
                    latency = timer.stop(ctx)
                    probe_latencies.append(latency)
                    received.append(self.decode(latency))
                    self._receiver_recover(ctx, sys_, bank_index, latency)
                    ctx.advance(DECODE_CYCLES + LOOP_OVERHEAD_CYCLES)
                    bank_cursor += 1
                    yield None
                yield credits.release()
            window["t1"] = ctx.now

        sched.spawn(sender, system, name="sender")
        sched.spawn(receiver, system, name="receiver")
        sched.run()
        cycles = window["t1"] - window["t0"]
        return self.make_result(message, received, cycles, probe_latencies)

    # ------------------------------------------------------------------
    # Fig. 9 support
    # ------------------------------------------------------------------

    def sender_receiver_breakdown(self, bits: int = 16, seed: int = 0) -> dict:
        """Cycles the sender spends sending vs the receiver reading one
        fully-encoded ``bits``-bit message, without pipelining (Fig. 9).

        The message is all ones — the sender-side cost that bounds the
        sender's rate (a zero is a free NOP slot).  The PnM sender issues
        its PEIs one at a time, which is why it is ~14x slower than the
        single-RowClone PuM sender (§5.3)."""
        message = [1] * bits
        system = self.system
        sched = Scheduler()
        times = {}

        def body(ctx: Context, sys_: System):
            for bank_index in range(min(bits, len(self.banks))):
                self._receiver_init(ctx, sys_, bank_index)
                yield None
            t0 = ctx.now
            for i, bit in enumerate(message):
                bank_index = i % len(self.banks)
                if bit:
                    self._sender_op(ctx, sys_, bank_index)
                else:
                    ctx.advance(NOP_CYCLES)
                ctx.advance(LOOP_OVERHEAD_CYCLES)
                yield None
            ctx.fence()
            times["send_cycles"] = ctx.now - t0
            t1 = ctx.now
            timer = sys_.new_timer()
            for i in range(len(message)):
                bank_index = i % len(self.banks)
                timer.start(ctx)
                self._receiver_probe(ctx, sys_, bank_index)
                timer.stop(ctx)
                ctx.advance(DECODE_CYCLES + LOOP_OVERHEAD_CYCLES)
                yield None
            times["read_cycles"] = ctx.now - t1

        sched.spawn(body, system, name="breakdown")
        sched.run()
        return times

    # ------------------------------------------------------------------
    # Threshold calibration
    # ------------------------------------------------------------------

    def calibrate_threshold(self, samples: int = 8,
                            calibration_rows: tuple = (900, 910)) -> int:
        """Measure hit and conflict PEI latencies on this system and set
        the decode threshold to their midpoint.

        Real attackers calibrate online rather than hard-coding Fig. 7's
        150 cycles; this reproduces that step.  Uses spare rows so the
        channel's init/interference rows stay untouched.  Returns (and
        installs) the calibrated threshold.
        """
        if samples < 1:
            raise ValueError("samples must be >= 1")
        row_a, row_b = calibration_rows
        if row_a == row_b:
            raise ValueError("calibration rows must differ")
        system = self.system
        bank = self.banks[0]
        addr_a = system.address_of(bank, row_a)
        addr_b = system.address_of(bank, row_b)
        hits: List[int] = []
        conflicts: List[int] = []
        sched = Scheduler()

        def body(ctx: Context, sys_: System):
            timer = sys_.new_timer()
            sys_.pei_op(ctx, addr_a, set_ignore=True, requestor="calibrate")
            for _ in range(samples):
                timer.start(ctx)
                sys_.pei_op(ctx, addr_a, set_ignore=True,
                            requestor="calibrate")
                hits.append(timer.stop(ctx))
                ctx.advance(200)
                yield None
            for i in range(samples):
                target = addr_b if i % 2 == 0 else addr_a
                timer.start(ctx)
                sys_.pei_op(ctx, target, set_ignore=True,
                            requestor="calibrate")
                conflicts.append(timer.stop(ctx))
                ctx.advance(200)
                yield None

        sched.spawn(body, system, name="calibrate")
        sched.run()
        hit_mean = sum(hits) / len(hits)
        conflict_mean = sum(conflicts) / len(conflicts)
        if conflict_mean <= hit_mean:
            raise RuntimeError(
                "calibration found no usable timing gap (defended system?)")
        self.threshold_cycles = int(round((hit_mean + conflict_mean) / 2))
        return self.threshold_cycles
