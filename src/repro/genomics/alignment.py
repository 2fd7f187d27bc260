"""Banded global alignment (the RM pipeline's final step, §4.3).

A banded Needleman-Wunsch with affine-ish costs reduced to linear gap
penalties: sufficient for scoring a read against its chained candidate
region, O(n x band) instead of O(n x m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

NEG_INF = float("-inf")


@dataclass(frozen=True)
class AlignmentResult:
    """Score plus a compact CIGAR-style operation string."""

    score: int
    cigar: str
    matches: int
    mismatches: int
    gaps: int


def banded_align(query: str, target: str, band: int = 32,
                 match: int = 2, mismatch: int = -4,
                 gap: int = -2, free_end_gaps: bool = True) -> AlignmentResult:
    """Align ``query`` against ``target`` within a diagonal band.

    The band is centered on the main diagonal; a band of at least
    ``abs(len(query) - len(target))`` is enforced so the global alignment
    exists.  With ``free_end_gaps`` (the read-mapping convention), target
    bases overhanging the query at either end are excluded from the CIGAR
    and the identity/gap counts — the read "fits" inside its reference
    window.
    """
    if band < 1:
        raise ValueError("band must be >= 1")
    n, m = len(query), len(target)
    band = max(band, abs(n - m) + 1)
    # dp[i] maps j -> score of aligning query[:i] with target[:j].
    prev: dict = {0: 0}
    for j in range(1, min(m, band) + 1):
        prev[j] = j * gap
    trace: List[dict] = [dict((j, "I") for j in prev if j > 0)]
    for i in range(1, n + 1):
        lo = max(0, i - band)
        hi = min(m, i + band)
        current: dict = {}
        ops: dict = {}
        for j in range(lo, hi + 1):
            best = NEG_INF
            op = "?"
            if j > 0 and (j - 1) in prev:
                diag = prev[j - 1] + (match if query[i - 1] == target[j - 1]
                                      else mismatch)
                if diag > best:
                    best, op = diag, ("M" if query[i - 1] == target[j - 1]
                                      else "X")
            if j in prev:
                up = prev[j] + gap
                if up > best:
                    best, op = up, "D"
            if (j - 1) in current:
                left = current[j - 1] + gap
                if left > best:
                    best, op = left, "I"
            if best > NEG_INF:
                current[j] = best
                ops[j] = op
        prev = current
        trace.append(ops)
    if m not in prev:
        raise ValueError("band too narrow for a global alignment")
    # Traceback.
    operations: List[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        op = trace[i].get(j)
        if op is None:
            op = "I" if i == 0 else "D"
        operations.append("M" if op in ("M", "X") else op)
        if op in ("M", "X"):
            counted = op
            i, j = i - 1, j - 1
        elif op == "D":
            i -= 1
        else:
            j -= 1
    operations.reverse()
    leading_trim = 0
    if free_end_gaps:
        lo = 0
        while lo < len(operations) and operations[lo] == "I":
            lo += 1
        hi = len(operations)
        while hi > lo and operations[hi - 1] == "I":
            hi -= 1
        leading_trim = lo
        operations = operations[lo:hi]
    cigar = _compress(operations)
    matches = mismatches = gaps = 0
    i, j = 0, leading_trim
    for op_char in operations:
        if op_char == "M":
            if query[i] == target[j]:
                matches += 1
            else:
                mismatches += 1
            i += 1
            j += 1
        elif op_char == "D":
            gaps += 1
            i += 1
        else:
            gaps += 1
            j += 1
    return AlignmentResult(score=int(prev[m]), cigar=cigar, matches=matches,
                           mismatches=mismatches, gaps=gaps)


def _compress(operations: List[str]) -> str:
    """Run-length encode an operation list: MMMID -> 3M1I1D."""
    if not operations:
        return ""
    parts: List[str] = []
    run_char = operations[0]
    run_len = 1
    for op in operations[1:]:
        if op == run_char:
            run_len += 1
        else:
            parts.append(f"{run_len}{run_char}")
            run_char, run_len = op, 1
    parts.append(f"{run_len}{run_char}")
    return "".join(parts)
