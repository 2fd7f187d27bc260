"""Multi-pair IMPACT-PnM: aggregate throughput across concurrent channels.

The paper evaluates one sender/receiver pair (§5.3).  Bank-level
parallelism leaves headroom: k pairs on disjoint bank subsets share only
the PiM interface and the controller, so aggregate throughput scales
close to k until the shared front-end saturates.  This module runs all
pairs inside one scheduler (genuinely concurrent, contending for the same
banks/controller state) and reports per-pair and aggregate results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.attacks.channel import (
    DECODE_CYCLES,
    LOOP_OVERHEAD_CYCLES,
    SEM_OP_CYCLES,
    random_bits,
)
from repro.attacks.impact_pnm import NOP_CYCLES
from repro.sim.scheduler import Barrier, Context, Scheduler, Semaphore
from repro.system import System


@dataclass(frozen=True)
class PairOutcome:
    """One pair's transmission result."""

    pair: int
    banks: Tuple[int, ...]
    sent: Tuple[int, ...]
    received: Tuple[int, ...]
    cycles: int

    @property
    def errors(self) -> int:
        return sum(1 for s, r in zip(self.sent, self.received) if s != r)

    @property
    def error_rate(self) -> float:
        return self.errors / len(self.sent) if self.sent else 0.0


@dataclass(frozen=True)
class MultiPairResult:
    """Aggregate outcome of k concurrent IMPACT-PnM channels."""

    outcomes: Tuple[PairOutcome, ...]
    cpu_hz: float

    @property
    def pairs(self) -> int:
        return len(self.outcomes)

    @property
    def total_correct_bits(self) -> int:
        return sum(len(o.sent) - o.errors for o in self.outcomes)

    @property
    def makespan_cycles(self) -> int:
        return max((o.cycles for o in self.outcomes), default=0)

    @property
    def aggregate_throughput_mbps(self) -> float:
        if self.makespan_cycles <= 0:
            return 0.0
        return (self.total_correct_bits * self.cpu_hz
                / self.makespan_cycles / 1e6)

    @property
    def worst_error_rate(self) -> float:
        return max((o.error_rate for o in self.outcomes), default=0.0)


def run_multi_pair(system: System, pairs: int, bits_per_pair: int = 256,
                   batch_size: int = 4, init_row: int = 100,
                   interference_row: int = 200, threshold_cycles: int = 150,
                   seed: int = 0) -> MultiPairResult:
    """Run ``pairs`` concurrent IMPACT-PnM channels on disjoint bank sets.

    Banks are split evenly; each pair runs the full §4.1 protocol
    (initialization, credit-backpressured batches, semaphore pipelining)
    inside one shared scheduler, so controller- and bank-level contention
    between pairs is real, not assumed away.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    num_banks = system.num_banks
    banks_per_pair = num_banks // pairs
    if banks_per_pair < batch_size:
        raise ValueError(
            f"{pairs} pairs over {num_banks} banks leaves {banks_per_pair} "
            f"banks per pair — below the batch size {batch_size}")
    sched = Scheduler()
    outcomes: List[PairOutcome] = [None] * pairs  # type: ignore[list-item]

    for pair in range(pairs):
        banks = tuple(range(pair * banks_per_pair,
                            (pair + 1) * banks_per_pair))
        message = random_bits(bits_per_pair, seed=seed + pair)
        init_addrs = [system.address_of(b, init_row) for b in banks]
        intf_addrs = [system.address_of(b, interference_row) for b in banks]
        batches = [message[i:i + batch_size]
                   for i in range(0, len(message), batch_size)]
        start_barrier = Barrier(parties=2, name=f"start-{pair}")
        sem = Semaphore(name=f"ready-{pair}")
        credits = Semaphore(initial=max(1, len(banks) // batch_size - 1),
                            name=f"credits-{pair}")

        def sender(ctx: Context, sys_: System, intf=intf_addrs,
                   batches=batches, banks=banks, start=start_barrier,
                   sem=sem, credits=credits):
            yield start.wait()
            cursor = 0
            for batch in batches:
                ctx.advance(SEM_OP_CYCLES)
                yield credits.acquire()
                for bit in batch:
                    if bit:
                        sys_.pei_op(ctx, intf[cursor % len(banks)],
                                    set_ignore=True,
                                    requestor=f"sender-{banks[0]}")
                    else:
                        ctx.advance(NOP_CYCLES)
                    ctx.advance(LOOP_OVERHEAD_CYCLES)
                    cursor += 1
                    yield None
                ctx.fence()
                ctx.advance(SEM_OP_CYCLES)
                yield sem.release()

        def receiver(ctx: Context, sys_: System, pair=pair, init=init_addrs,
                     message=message, batches=batches, banks=banks,
                     start=start_barrier, sem=sem, credits=credits):
            for addr in init:
                sys_.pei_op(ctx, addr, set_ignore=True,
                            requestor=f"receiver-{banks[0]}")
                yield None
            yield start.wait()
            t0 = ctx.now
            timer = sys_.new_timer()
            received: List[int] = []
            cursor = 0
            for batch in batches:
                ctx.advance(SEM_OP_CYCLES)
                yield sem.acquire()
                for _bit in batch:
                    timer.start(ctx)
                    sys_.pei_op(ctx, init[cursor % len(banks)],
                                set_ignore=True,
                                requestor=f"receiver-{banks[0]}")
                    latency = timer.stop(ctx)
                    received.append(1 if latency > threshold_cycles else 0)
                    ctx.advance(DECODE_CYCLES + LOOP_OVERHEAD_CYCLES)
                    cursor += 1
                    yield None
                yield credits.release()
            outcomes[pair] = PairOutcome(pair=pair, banks=banks,
                                         sent=tuple(message),
                                         received=tuple(received),
                                         cycles=ctx.now - t0)

        sched.spawn(sender, system, name=f"sender-{pair}")
        sched.spawn(receiver, system, name=f"receiver-{pair}")

    sched.run()
    return MultiPairResult(outcomes=tuple(outcomes), cpu_hz=system.cpu_hz)
