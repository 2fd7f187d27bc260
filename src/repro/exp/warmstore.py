"""In-process warm reuse: the pristine-system pool and its counters.

Building a large-LLC :class:`repro.system.System` costs far more than
restoring one from a snapshot, so :func:`pristine_system` keeps one live
machine per recent configuration and restores its construction-time
:class:`repro.sim.snapshot.SystemSnapshot` on every lease.

Correctness invariant (PR 1): reuse is pure — a pooled system is
indistinguishable from ``System(config)``, so a point served from the
pool is bit-identical to the same point on fresh machines.
``REPRO_NO_WARMSTORE=1`` disables the pool (the equivalence tests diff
both modes), and the pool refuses to serve whenever an observer, metrics
registry, or the sanitizer is active — those attach at construction time
and must see every event of a fresh machine.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Dict, Tuple

from repro.obs import metrics as obs_metrics
from repro.sim.snapshot import SystemSnapshot

#: Process-wide warm-reuse counters: the pristine-system pool records
#: here, and the sweep runner diffs them around each point to fill
#: ``SweepOutcome.warm_hits``/``warm_misses``.
_COUNTS = {"hits": 0, "misses": 0}


def record_event(kind: str, count: int = 1) -> None:
    """Count a warm-state hit or miss (``kind`` in {"hits", "misses"})
    and mirror it into the installed metrics registry, if any."""
    _COUNTS[kind] += count
    registry = obs_metrics.current()
    if registry is not None:
        registry.counter(f"warmstore.{kind}").inc(count)


def counters() -> Dict[str, int]:
    """Copy of the process-wide warm hit/miss counters."""
    return dict(_COUNTS)


def enabled() -> bool:
    """False when ``REPRO_NO_WARMSTORE`` is set: the pristine-system pool
    is bypassed, forcing the fresh-construction path the equivalence
    tests compare against."""
    return os.environ.get("REPRO_NO_WARMSTORE", "") not in ("1", "true", "yes")


#: Distinct configs pooled per process.  Each entry keeps one live System
#: plus its construction-time snapshot; restore is ~10x cheaper than
#: construction for large-LLC configs.
_PRISTINE_LIMIT = 4

_PRISTINE: "OrderedDict[Any, Tuple[Any, SystemSnapshot]]" = OrderedDict()


def pristine_system(config: Any) -> Any:
    """A system indistinguishable from ``System(config)``, reusing one
    pooled instance per config where safe.

    The pool restores the pooled machine's construction-time snapshot, so
    the caller always receives freshly-constructed state (including a
    detached off-chip predictor).  Pooling is bypassed — a brand-new
    ``System`` is returned — whenever an observer, a metrics registry, or
    the sanitizer is active (they bind at construction and must see every
    event), or when ``REPRO_NO_WARMSTORE`` disables warm reuse.

    Callers must be done with the previous system for ``config`` before
    requesting the next one: leases of the same config alias one object.
    """
    from repro import obs
    from repro.system import System

    if (not enabled()
            or obs.current_observer() is not None
            or obs_metrics.current() is not None
            or obs.sanitize_requested()):
        return System(config)
    entry = _PRISTINE.get(config)
    if entry is None:
        system = System(config)
        _PRISTINE[config] = (system, system.snapshot())
        while len(_PRISTINE) > _PRISTINE_LIMIT:
            _PRISTINE.popitem(last=False)
        record_event("misses")
        return system
    _PRISTINE.move_to_end(config)
    system, snapshot = entry
    # Pristine machines have no predictor; a previous lease (PnM-OffChip)
    # may have attached one, which restore() would otherwise reject.
    system.offchip_predictor = None
    system.restore(snapshot)
    record_event("hits")
    return system


def clear_pristine_pool() -> None:
    """Drop pooled systems (tests that need fresh construction paths)."""
    _PRISTINE.clear()
