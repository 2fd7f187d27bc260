"""Channel-quality analytics: BER confidence intervals, capacity
estimates, leakage scores, and eye-diagram summaries.

These are the quantities the paper (and the related RowHammer-defense /
PRAC timing-channel literature) actually reports about a covert channel:

- **bit-error rate** with a Wilson score confidence interval (robust at
  the BER≈0 operating points the channels reach),
- a **mutual-information capacity estimate** from the joint distribution
  of transmitted bit and observed probe latency (falls back to the
  sent/received confusion matrix when no latencies were captured),
- a **TVLA-style leakage score**: Welch's t between the latency samples
  under bit 0 and bit 1 (|t| > 4.5 ⇒ the timing distinguishably leaks),
- **eye-diagram summaries**: per-bit latency statistics, the eye gap
  between the two latency clusters, and the decode threshold's margins.

:func:`channel_quality` bundles all of them into one JSON-able
:class:`ChannelQuality`; ``ChannelResult.quality()`` is the convenient
entry point from an attack run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import (
    LatencyStats,
    WelchT,
    _percentile,
    split_by_bit,
    summarize_latencies,
    welch_t_stat,
)

#: The TVLA pass/fail boundary: |t| above this means the two latency
#: populations are distinguishable, i.e. the channel leaks.
TVLA_T_THRESHOLD = 4.5


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the boundary proportions covert channels live at
    (BER 0 or 1), where the naive normal interval collapses to a point.
    ``trials == 0`` returns the vacuous ``(0, 1)``.
    """
    if successes < 0 or trials < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def bin_latencies(latencies: Sequence[int], bins: int = 8) -> List[int]:
    """Quantize latencies into at most ``bins`` equal-frequency bins.

    Edges are interior percentiles of the sample; duplicate edges (heavy
    ties — deterministic timings cluster on a few values) collapse, so
    the effective bin count adapts to the sample's support.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not latencies:
        return []
    ordered = sorted(latencies)
    edges: List[float] = []
    for i in range(1, bins):
        edge = _percentile(ordered, i / bins)
        if not edges or edge > edges[-1]:
            edges.append(edge)
    return [bisect_left(edges, lat) for lat in latencies]


def mutual_information_bits(xs: Sequence[Any], ys: Sequence[Any]) -> float:
    """Mutual information I(X; Y) in bits from paired discrete samples."""
    n = len(xs)
    if n == 0:
        return 0.0
    if len(ys) != n:
        raise ValueError("samples must align")
    joint: Dict[Tuple[Any, Any], int] = {}
    px: Dict[Any, int] = {}
    py: Dict[Any, int] = {}
    for x, y in zip(xs, ys):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        px[x] = px.get(x, 0) + 1
        py[y] = py.get(y, 0) + 1
    mi = 0.0
    for (x, y), count in joint.items():
        p_xy = count / n
        mi += p_xy * math.log2(p_xy * n * n / (px[x] * py[y]))
    # Clamp tiny negative float residue from the log sums.
    return max(0.0, mi)


@dataclass(frozen=True)
class ChannelQuality:
    """Channel-quality metrics for one transmission (all JSON-able via
    :meth:`to_dict`)."""

    bits: int
    errors: int
    ber: float
    ber_ci95: Tuple[float, float]
    mutual_information_bits: float
    capacity_mbps: float
    leakage: WelchT
    threshold_cycles: Optional[int]
    eye_gap: Optional[float]
    zero_latency: Optional[LatencyStats]
    one_latency: Optional[LatencyStats]

    @property
    def leaks(self) -> bool:
        """TVLA verdict: are the two latency populations distinguishable?"""
        return abs(self.leakage.t) > TVLA_T_THRESHOLD

    def threshold_margins(self) -> Optional[Tuple[float, float]]:
        """(threshold − max zero-latency, min one-latency − threshold):
        both positive ⇔ the fixed threshold decodes this sample error-free."""
        if (self.threshold_cycles is None or self.zero_latency is None
                or self.one_latency is None):
            return None
        return (self.threshold_cycles - self.zero_latency.maximum,
                self.one_latency.minimum - self.threshold_cycles)

    def to_dict(self) -> Dict[str, Any]:
        margins = self.threshold_margins()
        return {
            "bits": self.bits,
            "errors": self.errors,
            "ber": self.ber,
            "ber_ci95": [self.ber_ci95[0], self.ber_ci95[1]],
            "mutual_information_bits": self.mutual_information_bits,
            "capacity_mbps": self.capacity_mbps,
            "leakage_t": self.leakage.t,
            "leakage_dof": self.leakage.dof,
            "leaks": self.leaks,
            "threshold_cycles": self.threshold_cycles,
            "eye_gap": self.eye_gap,
            "threshold_margins": list(margins) if margins else None,
            "zero_latency": (self.zero_latency.to_dict()
                             if self.zero_latency else None),
            "one_latency": (self.one_latency.to_dict()
                            if self.one_latency else None),
        }


def channel_quality(sent: Sequence[int], received: Sequence[int],
                    latencies: Optional[Sequence[int]] = None,
                    threshold_cycles: Optional[int] = None,
                    cycles: int = 0, cpu_hz: float = 0.0) -> ChannelQuality:
    """Compute every channel-quality metric for one transmission.

    ``latencies`` are the receiver's per-bit probe timings aligned with
    ``sent`` (as :class:`repro.attacks.ChannelResult` records them); when
    absent or misaligned, latency-based metrics degrade gracefully — MI
    falls back to the sent/received confusion matrix and the leakage
    score to 0.
    """
    if len(sent) != len(received):
        raise ValueError("sent and received lengths differ")
    bits = len(sent)
    errors = sum(1 for s, r in zip(sent, received) if s != r)
    ber = errors / bits if bits else 0.0
    ci = wilson_interval(errors, bits)

    lat = list(latencies) if latencies is not None else []
    aligned = len(lat) == bits and bits > 0
    if aligned:
        mi = mutual_information_bits(list(sent), bin_latencies(lat))
        zeros, ones = split_by_bit(lat, sent)
        leakage = welch_t_stat(ones, zeros)
        zero_stats = summarize_latencies(zeros) if zeros else None
        one_stats = summarize_latencies(ones) if ones else None
        eye_gap = (float(min(ones) - max(zeros))
                   if zeros and ones else None)
    else:
        mi = mutual_information_bits(list(sent), list(received))
        leakage = WelchT(t=0.0, dof=0.0, n_a=0, n_b=0)
        zero_stats = one_stats = None
        eye_gap = None

    capacity = 0.0
    if cycles > 0 and cpu_hz > 0 and bits:
        # MI per symbol x symbol rate: an achievable-rate estimate for
        # the channel as operated (same units as throughput_mbps).
        capacity = mi * bits * cpu_hz / cycles / 1e6
    return ChannelQuality(
        bits=bits, errors=errors, ber=ber, ber_ci95=ci,
        mutual_information_bits=mi, capacity_mbps=capacity,
        leakage=leakage, threshold_cycles=threshold_cycles,
        eye_gap=eye_gap, zero_latency=zero_stats, one_latency=one_stats)
