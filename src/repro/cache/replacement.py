"""Cache replacement policies: LRU, SRRIP, and random.

Table 2 uses LRU at L1 and SRRIP [118] at L2/L3.  Replacement matters to the
attacks: eviction sets are only *probabilistically* effective because the
policy is opaque to the attacker (§3.2, Table 1 "ISA guarantees: X" for
eviction sets), and SRRIP in particular can retain a target line after
``ways`` conflicting fills.
"""

from __future__ import annotations

import random
from typing import List, Optional


class ReplacementPolicy:
    """Per-cache replacement state; one instance manages every set.

    ``ways`` slots per set; ways are addressed ``0 .. ways-1`` within a set.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be >= 1")
        self.num_sets = num_sets
        self.ways = ways

    def on_hit(self, set_index: int, way: int) -> None:
        """Update state after a hit on ``way``."""
        raise NotImplementedError

    def on_fill(self, set_index: int, way: int) -> None:
        """Update state after filling a new line into ``way``."""
        raise NotImplementedError

    def victim(self, set_index: int, valid: List[bool]) -> int:
        """Choose the way to evict (an invalid way is preferred)."""
        raise NotImplementedError

    def snapshot_state(self):
        """Copied replacement metadata for warm-state snapshots."""
        return None

    def restore_state(self, state) -> None:
        """Restore :meth:`snapshot_state` output.  Implementations must
        mutate existing per-set lists in place — callers may alias them
        (see :mod:`repro.sim.snapshot`)."""

    def _first_invalid(self, valid: List[bool]) -> Optional[int]:
        # Membership test first: a full set (the steady state) costs one
        # C-speed scan instead of a raised-and-caught ValueError.
        if False in valid:
            return valid.index(False)
        return None


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used: evict the oldest-touched way."""

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._stamp = 0
        self._last_use = [[0] * ways for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int) -> None:
        stamp = self._stamp + 1
        self._stamp = stamp
        self._last_use[set_index][way] = stamp

    on_fill = on_hit

    def victim(self, set_index: int, valid: List[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        uses = self._last_use[set_index]
        return uses.index(min(uses))

    def snapshot_state(self):
        return self._stamp, [list(row) for row in self._last_use]

    def restore_state(self, state) -> None:
        stamp, last_use = state
        self._stamp = stamp
        for dst, src in zip(self._last_use, last_use):
            dst[:] = src


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction [118] with 2-bit RRPVs.

    Fills insert at RRPV ``max-1`` (long re-reference), hits promote to 0.
    Victim selection scans for RRPV == max, aging every line when none is
    found.  This is the policy that defeats naive W-access eviction sets.
    """

    MAX_RRPV = 3

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._rrpv = [[self.MAX_RRPV] * ways for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = 0

    def on_fill(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.MAX_RRPV - 1

    def victim(self, set_index: int, valid: List[bool]) -> int:
        if False in valid:
            return valid.index(False)
        rrpvs = self._rrpv[set_index]
        max_rrpv = self.MAX_RRPV
        while True:
            # RRPVs never exceed MAX_RRPV (aging only runs when no way is
            # at the maximum), so the ==-scan is an exact-match search.
            if max_rrpv in rrpvs:
                return rrpvs.index(max_rrpv)
            # Age every line by the distance to the nearest re-reference
            # in one shot — equivalent to repeated +1 rounds.
            step = max_rrpv - max(rrpvs)
            rrpvs[:] = [r + step for r in rrpvs]

    def snapshot_state(self):
        return [list(row) for row in self._rrpv]

    def restore_state(self, state) -> None:
        # In place: Cache aliases these row lists for its inlined SRRIP
        # fast path — rebinding them would silently break the alias.
        for dst, src in zip(self._rrpv, state):
            dst[:] = src


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (deterministic under a seeded RNG)."""

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways)
        self._rng = random.Random(seed)

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int, valid: List[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self._rng.randrange(self.ways)

    def snapshot_state(self):
        return self._rng.getstate()

    def restore_state(self, state) -> None:
        self._rng.setstate(state)


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
