"""Terminal-friendly rendering of a Fig. 7-style latency distribution.

Benches persist their numbers as tables; :func:`latency_histogram`
renders a probe's latencies as an ASCII histogram with the decode
threshold marked, so an example can show the two clusters a receiver
separates without a plotting stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def latency_histogram(latencies: Sequence[int], bucket_cycles: int = 10,
                      width: int = 40, threshold: Optional[int] = None,
                      title: Optional[str] = None) -> str:
    """Fig. 7-style latency distribution with an optional threshold marker."""
    if bucket_cycles < 1:
        raise ValueError("bucket_cycles must be >= 1")
    if not latencies:
        return title or ""
    buckets: Dict[int, int] = {}
    for latency in latencies:
        bucket = (latency // bucket_cycles) * bucket_cycles
        buckets[bucket] = buckets.get(bucket, 0) + 1
    peak = max(buckets.values())
    lines: List[str] = []
    if title:
        lines.append(title)
    marker_done = threshold is None
    for bucket in sorted(buckets):
        if not marker_done and bucket > threshold:
            lines.append(f"{'--- threshold':>12} {threshold} cycles ---")
            marker_done = True
        count = buckets[bucket]
        bar = "#" * max(1, int(round(width * count / peak)))
        lines.append(f"{bucket:>8}-{bucket + bucket_cycles - 1:<6} "
                     f"{bar} {count}")
    if not marker_done:
        lines.append(f"{'--- threshold':>12} {threshold} cycles ---")
    return "\n".join(lines)
