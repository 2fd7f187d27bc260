"""Cache replacement policies: LRU, SRRIP, and random.

Table 2 uses LRU at L1 and SRRIP [118] at L2/L3.  Replacement matters to the
attacks: eviction sets are only *probabilistically* effective because the
policy is opaque to the attacker (§3.2, Table 1 "ISA guarantees: X" for
eviction sets), and SRRIP in particular can retain a target line after
``ways`` conflicting fills.
"""

from __future__ import annotations

import itertools
import random
from array import array


class ReplacementPolicy:
    """Per-cache replacement state; one instance manages every set.

    State is flat, like :class:`repro.cache.cache.Cache`'s: way ``w`` of
    set ``s`` is slot ``s * ways + w``.  The cache fills invalid ways
    itself, so :meth:`victim` is only asked about full sets.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be >= 1")
        self.num_sets = num_sets
        self.ways = ways

    def on_hit(self, slot: int) -> None:
        """Update state after a hit on ``slot``."""
        raise NotImplementedError

    def on_fill(self, slot: int) -> None:
        """Update state after filling a new line into ``slot``."""
        raise NotImplementedError

    def victim(self, base: int) -> int:
        """Choose the slot to evict from the full set whose first slot is
        ``base``."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used: evict the oldest-touched way.

    Every hit or fill stamps its slot with the next of 1, 2, 3, ...;
    :class:`repro.cache.cache.Cache` aliases ``_last_use`` and
    ``_next_stamp`` to stamp slots and pick victims inline.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._next_stamp = itertools.count(1).__next__
        self._last_use = array("q", [0]) * (num_sets * ways)

    def on_hit(self, slot: int) -> None:
        self._last_use[slot] = self._next_stamp()

    on_fill = on_hit

    def victim(self, base: int) -> int:
        uses = self._last_use[base:base + self.ways]
        return base + uses.index(min(uses))


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction [118] with 2-bit RRPVs.

    Fills insert at RRPV ``max-1`` (long re-reference), hits promote to 0.
    Victim selection scans for RRPV == max, aging every line when none is
    found.  This is the policy that defeats naive W-access eviction sets.
    """

    MAX_RRPV = 3

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        # One byte per slot: ``find`` looks for a victim without raising
        # when no way is at the maximum.
        self._rrpv = bytearray([self.MAX_RRPV]) * (num_sets * ways)

    def on_hit(self, slot: int) -> None:
        self._rrpv[slot] = 0

    def on_fill(self, slot: int) -> None:
        self._rrpv[slot] = self.MAX_RRPV - 1

    def victim(self, base: int) -> int:
        rrpv = self._rrpv
        end = base + self.ways
        slot = rrpv.find(self.MAX_RRPV, base, end)
        if slot >= 0:
            return slot
        # No way is at the maximum (RRPVs never exceed it): age every line
        # by the distance to the nearest re-reference in one shot,
        # equivalent to repeated +1 rounds.
        row = rrpv[base:end]
        oldest = max(row)
        step = self.MAX_RRPV - oldest
        rrpv[base:end] = bytes([r + step for r in row])
        return base + row.index(oldest)


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (deterministic under a seeded RNG)."""

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways)
        self._rng = random.Random(seed)

    def on_hit(self, slot: int) -> None:
        pass

    def on_fill(self, slot: int) -> None:
        pass

    def victim(self, base: int) -> int:
        return base + self._rng.randrange(self.ways)


_POLICIES = {"lru": LRUPolicy, "srrip": SRRIPPolicy, "random": RandomPolicy}


def make_replacement_policy(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    """Construct a policy by name: ``lru``, ``srrip``, or ``random``."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, ways)
