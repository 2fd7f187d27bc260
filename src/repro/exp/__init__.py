"""Parallel sweep execution: declarative sweeps and a process-pool runner.

Every headline result of the reproduction is a *sweep* — the same
experiment re-run across LLC sizes, way counts, bank counts, defenses, or
workloads.  Sweep points are independent by construction (each builds its
own :class:`repro.system.System` from a config, and every RNG is seeded
per-config), so they can fan out across worker processes and produce
bit-identical results to serial execution.

Usage::

    from repro.exp import SweepPoint, run_sweep
    from repro.exp.figures import fig8_point

    points = [SweepPoint("fig8", fig8_point, {"llc_mb": mb})
              for mb in (8, 16, 32, 64)]
    outcome = run_sweep(points, jobs=4)
    for point, result in zip(points, outcome):
        print(point.params["llc_mb"], result["IMPACT-PnM"])
"""

from repro.exp.runner import (
    SweepOutcome,
    default_jobs,
    point_slug,
    run_sweep,
    shutdown_pool,
    trace_path,
)
from repro.exp.sweep import SweepPoint, sweep_points

__all__ = [
    "SweepOutcome",
    "SweepPoint",
    "default_jobs",
    "point_slug",
    "run_sweep",
    "shutdown_pool",
    "sweep_points",
    "trace_path",
]
