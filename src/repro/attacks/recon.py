"""Timing-based DRAM address-mapping reconnaissance (§2.3, §4.1).

Before any row-buffer channel can run, the attacker must (i) reverse-
engineer which physical-address bits select the DRAM bank — the DRAMA
technique [68] that works on XOR-hashed mappings too [75-78] — and
(ii) *massage* memory until it owns addresses co-located with the victim's
bank.  This module implements both, purely from timing:

- :meth:`AddressReconnaissance.same_bank_different_row` — the classic
  alternating-access probe: two addresses in the same bank but different
  rows evict each other's row continuously, so the pair's mean access
  latency sits at conflict level; any other relation stays fast.
- :meth:`AddressReconnaissance.recover_bank_function` — classifies every
  address bit (column / row-only / bank-affecting) and groups
  bank-affecting bits into XOR classes.
- :meth:`AddressReconnaissance.find_same_bank_addresses` — the memory-
  massaging step the covert channels assume has already happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.sim.scheduler import Context, Scheduler
from repro.system import System


@dataclass(frozen=True)
class BankFunctionModel:
    """Recovered bank-addressing function.

    ``xor_groups``: sets of bit positions whose XOR feeds one bank-index
    bit (a group of size one is a plain bank bit); ``row_bits`` and
    ``column_bits`` are the non-bank-affecting classifications.
    """

    bank_bits: Tuple[int, ...]
    row_bits: Tuple[int, ...]
    column_bits: Tuple[int, ...]
    xor_groups: Tuple[Tuple[int, ...], ...]

    def describe(self) -> str:
        groups = ", ".join("^".join(f"b{bit}" for bit in group)
                           for group in self.xor_groups) or "-"
        return (f"bank bits: {list(self.bank_bits)}; xor groups: {groups}; "
                f"row bits: {len(self.row_bits)}; "
                f"column bits: {len(self.column_bits)}")


class AddressReconnaissance:
    """Reverse-engineers the bank function of a live system by timing."""

    def __init__(self, system: System, pair_probes: int = 4,
                 conflict_threshold: Optional[int] = None) -> None:
        if pair_probes < 2:
            raise ValueError("pair_probes must be >= 2")
        self.system = system
        self.pair_probes = pair_probes
        t = system.config.timings
        q = system.config.queue_cycles
        if conflict_threshold is None:
            # Midpoint between a hit and a conflict as seen by a raw probe.
            conflict_threshold = q + (t.hit_cycles + t.conflict_cycles) // 2
        self.conflict_threshold = conflict_threshold
        self.timing_probes = 0

    # ------------------------------------------------------------------
    # Timing primitive
    # ------------------------------------------------------------------

    def _mean_pair_latency(self, addr_a: int, addr_b: int) -> float:
        """Alternate accesses to the pair; mean latency of the tail."""
        system = self.system
        latencies: List[int] = []

        def body(ctx: Context, sys_: System):
            for i in range(self.pair_probes * 2):
                addr = addr_a if i % 2 == 0 else addr_b
                result = sys_.controller.access(addr, ctx.now,
                                                requestor="recon")
                ctx.advance_to(result.finish)
                ctx.advance(50)  # de-correlate from bank busy windows
                if i >= 2:  # skip the warm-up pair
                    latencies.append(result.latency)
                yield None

        sched = Scheduler()
        sched.spawn(body, system, name="recon")
        sched.run()
        self.timing_probes += self.pair_probes * 2
        return sum(latencies) / len(latencies)

    def same_bank_different_row(self, addr_a: int, addr_b: int) -> bool:
        """True iff the pair thrashes one row buffer (same bank, rows
        differ) — the DRAMA timing signature."""
        return self._mean_pair_latency(addr_a, addr_b) > self.conflict_threshold

    # ------------------------------------------------------------------
    # Bank-function recovery
    # ------------------------------------------------------------------

    def _addressable_bits(self) -> List[int]:
        capacity = self.system.config.geometry.capacity_bytes
        return list(range(6, capacity.bit_length() - 1))  # skip line offset

    def recover_bank_function(self, base: int = 0) -> BankFunctionModel:
        """Classify every physical-address bit by timing alone."""
        bits = self._addressable_bits()
        # Step 1: bits whose flip keeps the pair in one bank (slow pair)
        # while changing the row => row bits; a fast pair means the bit
        # changed the bank OR stayed inside the same row (column bit).
        slow_bits: Set[int] = set()
        fast_bits: Set[int] = set()
        for bit in bits:
            flipped = base ^ (1 << bit)
            if self.same_bank_different_row(base, flipped):
                slow_bits.add(bit)
            else:
                fast_bits.add(bit)
        if not slow_bits:
            raise RuntimeError("found no row bit; cannot disambiguate")
        reference_row_bit = max(slow_bits)
        # Step 2: disambiguate fast bits — flip together with a known row
        # bit: if the pair is now slow, the bit never changed the bank
        # (it was a column bit); if still fast, it is bank-affecting.
        bank_affecting: Set[int] = set()
        column_bits: Set[int] = set()
        for bit in sorted(fast_bits):
            flipped = base ^ (1 << bit) ^ (1 << reference_row_bit)
            if self.same_bank_different_row(base, flipped):
                column_bits.add(bit)
            else:
                bank_affecting.add(bit)
        # Step 3: XOR groups — two bank-affecting bits whose joint flip
        # cancels (pair slow again) feed the same bank-index bit.
        remaining = sorted(bank_affecting)
        groups: List[Tuple[int, ...]] = []
        grouped: Set[int] = set()
        for i, bit_i in enumerate(remaining):
            if bit_i in grouped:
                continue
            group = [bit_i]
            for bit_j in remaining[i + 1:]:
                if bit_j in grouped:
                    continue
                flipped = base ^ (1 << bit_i) ^ (1 << bit_j)
                if self.same_bank_different_row(base, flipped):
                    group.append(bit_j)
                    grouped.add(bit_j)
            grouped.add(bit_i)
            groups.append(tuple(group))
        return BankFunctionModel(
            bank_bits=tuple(sorted(bank_affecting)),
            row_bits=tuple(sorted(slow_bits)),
            column_bits=tuple(sorted(column_bits)),
            xor_groups=tuple(groups))

    # ------------------------------------------------------------------
    # Memory massaging
    # ------------------------------------------------------------------

    def find_same_bank_addresses(self, base: int, count: int,
                                 stride: Optional[int] = None,
                                 search_limit: int = 4096) -> List[int]:
        """Collect ``count`` addresses co-located with ``base``'s bank (in
        distinct rows) by timing candidate addresses — the §4.1 memory-
        massaging step."""
        if count < 1:
            raise ValueError("count must be >= 1")
        geometry = self.system.config.geometry
        step = stride if stride is not None else geometry.row_bytes
        capacity = geometry.capacity_bytes
        found: List[int] = []
        candidate = base
        for _ in range(search_limit):
            candidate = (candidate + step) % capacity
            if candidate == base:
                continue
            if self.same_bank_different_row(base, candidate):
                found.append(candidate)
                if len(found) >= count:
                    return found
        raise RuntimeError(
            f"massaging found only {len(found)}/{count} co-located addresses")
