#!/usr/bin/env python
"""Sweep-engine acceptance bench: adaptive rep savings.

One measurement, written into the ``sweep_engine`` section of the
committed bench snapshot (``BENCH_PR10.json`` by default, merged — the
other sections come from ``scripts/bench_snapshot.py``)::

    PYTHONPATH=src python scripts/bench_sweep.py [--jobs 2] [--output ...]

- ``adaptive`` — the fig8-style quality sweep run through
  :func:`repro.exp.run_adaptive_sweep`: repetitions scheduled in rounds,
  each point early-stopped once every Bernoulli stream's pooled Wilson
  CI half-width meets the target.  The headline is
  ``rep_savings_ratio``: executed repetitions vs the fixed grid
  (``points * max_reps``) that would reach the same CI floor by brute
  force.  Acceptance (gated by ``scripts/bench_gate.py``): >= 2x.

The run also verifies causal hygiene from the event log it writes: every
span commits exactly once, and ``telemetry.verify_chains`` is clean.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.exp import (  # noqa: E402
    AdaptiveConfig,
    ConvergenceTarget,
    ResultCache,
    run_adaptive_sweep,
    shutdown_pool,
    sweep_points,
)
from repro.exp.figures import fig8_quality_point  # noqa: E402
from repro.obs import telemetry  # noqa: E402

OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR10.json")


def chain_hygiene(telemetry_dir: str) -> dict:
    """Commit/chain integrity of one run's event log: duplicate commits
    (spans with more than one ``point_committed``) and verify_chains
    errors."""
    events = telemetry.read_events(telemetry_dir)
    commits: dict = {}
    for event in events:
        if event.get("event") == "point_committed" and event.get("span_id"):
            commits[event["span_id"]] = commits.get(event["span_id"], 0) + 1
    return {
        "events": len(events),
        "committed_spans": len(commits),
        "duplicate_commits": sum(count - 1 for count in commits.values()
                                 if count > 1),
        "chain_errors": len(telemetry.verify_chains(events)),
    }


def bench_adaptive(jobs: int, tmp: str) -> dict:
    """Adaptive fig8 quality sweep vs its fixed-grid repetition budget."""
    # bits=192 keeps the shortest per-rep stream (DRAMA-eviction, 1/8 of
    # the scale) at 24 trials, so a clean point's pooled CI meets the
    # 0.05 target at the 2-rep floor instead of straddling it.
    points = sweep_points("fig8-quality", fig8_quality_point, "llc_mb",
                          [8.0, 64.0], bits=192)
    config = AdaptiveConfig(
        rep_axis="seed", min_reps=2, max_reps=8, round_reps=2,
        target=ConvergenceTarget(ber_ci_halfwidth=0.05))
    telemetry_dir = os.path.join(tmp, "telemetry-adaptive")
    outcome = run_adaptive_sweep(
        points, config=config, jobs=jobs,
        cache=ResultCache(os.path.join(tmp, "cache-adaptive")),
        telemetry_dir=telemetry_dir)
    worst_hw = max((result.halfwidth for result in outcome.results
                    if result.halfwidth is not None), default=None)
    record = {
        "points": len(points),
        "bits": 192,
        "target_ber_ci_halfwidth": config.target.ber_ci_halfwidth,
        "min_reps": config.min_reps,
        "max_reps": config.max_reps,
        "executed_reps": outcome.executed_reps,
        "fixed_reps": outcome.fixed_reps,
        "rep_savings_ratio": round(outcome.rep_savings_ratio, 2),
        "rounds": outcome.rounds,
        "converged_points": sum(1 for r in outcome.results if r.converged),
        "achieved_ci_halfwidth": (round(worst_hw, 4)
                                  if worst_hw is not None else None),
        "seconds": round(outcome.elapsed_seconds, 3),
        "per_point_reps": {result.point.describe(): result.reps
                           for result in outcome.results},
    }
    record.update(chain_hygiene(telemetry_dir))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool workers (default 2)")
    parser.add_argument("--output", default=OUTPUT,
                        help="bench snapshot to merge the sweep_engine "
                             "section into (default BENCH_PR10.json)")
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="repro-bench-sweep-")
    try:
        print("adaptive fig8 quality sweep (CI-convergence early-stop)...")
        adaptive = bench_adaptive(args.jobs, tmp)
        print(f"adaptive: {adaptive['executed_reps']} reps executed vs "
              f"{adaptive['fixed_reps']} fixed "
              f"({adaptive['rep_savings_ratio']}x savings, "
              f"{adaptive['rounds']} rounds, "
              f"worst CI half-width {adaptive['achieved_ci_halfwidth']}, "
              f"{adaptive['duplicate_commits']} dup commits, "
              f"{adaptive['chain_errors']} chain errors)")
    finally:
        shutdown_pool()
        shutil.rmtree(tmp, ignore_errors=True)

    section = {"adaptive": adaptive,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime())}
    try:
        with open(args.output) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {}
    record["sweep_engine"] = section
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"sweep_engine section merged into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
