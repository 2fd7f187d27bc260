"""Anchor chaining: seeding's second half (§4.3).

Seed hits (anchors) are (read position, reference position) pairs; the
chainer finds the highest-scoring colinear subset via the standard
O(n^2) dynamic program with a concave gap cost — the same formulation
minimap2 uses (with its heuristics dropped for clarity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class Anchor:
    """One seed hit."""

    read_pos: int
    ref_pos: int
    length: int = 15


@dataclass(frozen=True)
class Chain:
    """A scored colinear chain of anchors."""

    anchors: List[Anchor]
    score: float

    @property
    def ref_start(self) -> int:
        return self.anchors[0].ref_pos

    @property
    def read_start(self) -> int:
        return self.anchors[0].read_pos


def _gap_cost(dr: int, dq: int) -> float:
    """Concave penalty for the diagonal drift between two anchors."""
    gap = abs(dr - dq)
    if gap == 0:
        return 0.0
    return 0.5 * gap + 0.5 * math.log2(gap + 1)


def chain_anchors(anchors: Sequence[Anchor], max_gap: int = 5000,
                  min_score: float = 20.0) -> Optional[Chain]:
    """Best chain under the DP ``f[i] = max(f[j] + match - gap_cost)``.

    Returns None when no chain reaches ``min_score`` (the read does not
    map).  Anchors need not be sorted.
    """
    if not anchors:
        return None
    ordered = sorted(anchors, key=lambda a: (a.ref_pos, a.read_pos))
    n = len(ordered)
    score = [float(a.length) for a in ordered]
    parent = [-1] * n
    for i in range(n):
        ai = ordered[i]
        for j in range(i - 1, -1, -1):
            aj = ordered[j]
            dr = ai.ref_pos - aj.ref_pos
            dq = ai.read_pos - aj.read_pos
            if dr <= 0 or dq <= 0:
                continue
            if dr > max_gap:
                break
            candidate = score[j] + min(ai.length, dq, dr) - _gap_cost(dr, dq)
            if candidate > score[i]:
                score[i] = candidate
                parent[i] = j
    best = max(range(n), key=lambda i: score[i])
    if score[best] < min_score:
        return None
    chain: List[Anchor] = []
    i = best
    while i >= 0:
        chain.append(ordered[i])
        i = parent[i]
    chain.reverse()
    return Chain(anchors=chain, score=score[best])
