"""Cache hierarchy substrate.

Models the processor-side structures that stand between an attacker and
main memory (§3.2): a three-level set-associative hierarchy with LRU/SRRIP
replacement, IP-stride and streamer prefetchers (noise sources, §5.1), a
CACTI-style LLC latency model (used by the Fig. 2/3 size and way sweeps),
and the cache-management operations attacks build on (``clflush``,
eviction sets, non-temporal hints).
"""

from repro.cache.cacti import llc_latency_cycles
from repro.cache.cache import Cache, CacheConfig
from repro.cache.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    HierarchyResult,
    PrefetchSchedule,
)
from repro.cache.prefetcher import IPStridePrefetcher, StreamerPrefetcher

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "HierarchyResult",
    "IPStridePrefetcher",
    "PrefetchSchedule",
    "StreamerPrefetcher",
    "llc_latency_cycles",
]
