#!/usr/bin/env python
"""Quick benchmark snapshot: figure sweeps + simulator ops/sec.

Runs a reduced slice of every figure sweep through :mod:`repro.exp`
(parallel + cached exactly like the benches), times raw simulator and
scheduler microbenchmarks, prices the telemetry event log on two
identical figure passes, and writes the whole record to
``BENCH_PR10.json`` at the repo root.  Intended for
``make bench-quick``::

    PYTHONPATH=src python scripts/bench_snapshot.py [--jobs N] [--no-cache]

The cache lives under ``benchmarks/results/.cache`` (shared with the
pytest benches), so a snapshot taken right after the benchmark suite is
nearly free, and a second snapshot of unchanged code replays entirely
from disk.

The figure-pass section runs the fig8+fig10+fig11 sweeps twice in
*fresh subprocesses* with the result cache off, the second time with
``REPRO_TELEMETRY_DIR`` set, so the ``telemetry_overhead`` section
prices the causal event log against an identical telemetry-off pass
(acceptance: < 5% wall clock).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.exp import ResultCache, code_version, default_jobs, run_sweep  # noqa: E402
from repro.exp.figures import (  # noqa: E402
    fig2_sweep,
    fig3_sweep,
    fig8_sweep,
    fig10_sweep,
    fig11_sweep,
)

CACHE_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", ".cache")
TELEMETRY_DIR = os.path.join(REPO_ROOT, "benchmarks", "results",
                             ".telemetry-bench")
OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR10.json")

# Reduced axes: one quick pass over every figure, a couple of minutes
# serial and cold, seconds warm or parallel.
QUICK_SWEEPS = [
    ("fig2", lambda: fig2_sweep((2, 16, 64))),
    ("fig3", lambda: fig3_sweep((2, 16, 128))),
    ("fig8", lambda: fig8_sweep((8, 64))),
    ("fig10", lambda: fig10_sweep((1024, 8192))),
    ("fig11", lambda: fig11_sweep(("BC", "PR"), max_refs=20_000)),
]


#: The sweeps of each figure pass behind the telemetry-overhead
#: measurement.
PASS_SWEEPS = [
    ("fig8", lambda: fig8_sweep((8, 64))),
    ("fig10", lambda: fig10_sweep((1024, 8192))),
    ("fig11", lambda: fig11_sweep(("BC", "PR"), max_refs=20_000)),
]


def run_figure_pass(jobs: int) -> dict:
    """One pass over the pass sweeps, result cache off.  Runs inside the
    ``--figure-pass`` subprocess so every in-process pool starts cold."""
    figures = {}
    total = 0.0
    for name, build in PASS_SWEEPS:
        points = build()
        outcome = run_sweep(points, jobs=jobs, cache=None)
        figures[name] = {
            "points": len(points),
            "seconds": round(outcome.elapsed_seconds, 3),
        }
        total += outcome.elapsed_seconds
    return {"figures": figures, "seconds": round(total, 3)}


def figure_passes(jobs: int) -> dict:
    """Plain and telemetry-on figure passes in fresh subprocesses (see
    module docstring)."""
    record = {"passes": {}}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.pop("REPRO_TELEMETRY_DIR", None)
    # Same points twice, the second with the event log on, so the delta
    # prices telemetry alone.
    for label in ("plain", "telemetry"):
        pass_env = dict(env)
        if label == "telemetry":
            shutil.rmtree(TELEMETRY_DIR, ignore_errors=True)
            os.makedirs(TELEMETRY_DIR, exist_ok=True)
            pass_env["REPRO_TELEMETRY_DIR"] = TELEMETRY_DIR
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--figure-pass", "--jobs", str(jobs)],
            capture_output=True, text=True, env=pass_env)
        if proc.returncode != 0:
            raise RuntimeError(f"{label} figure pass failed:\n{proc.stderr}")
        record["passes"][label] = json.loads(proc.stdout)
    return record


def telemetry_overhead(pass_record: dict) -> dict:
    """Price of the causal event log: the telemetry-on pass vs the
    identical telemetry-off one, plus a chain-integrity check over the
    log the pass just wrote (every span complete, none duplicated)."""
    from repro.obs import telemetry

    passes = pass_record["passes"]
    plain = passes["plain"]["seconds"]
    logged = passes["telemetry"]["seconds"]
    events = telemetry.read_events(TELEMETRY_DIR)
    return {
        "plain_seconds": plain,
        "telemetry_seconds": logged,
        "overhead_pct": round((logged - plain) / max(plain, 1e-9) * 100.0,
                              2),
        "events": len(events),
        "spans": len({e["span_id"] for e in events if "span_id" in e}),
        "chain_errors": len(telemetry.verify_chains(events)),
    }


def _quiesce_heap() -> None:
    """Drop sweep leftovers and stop the GC from scanning what remains.

    The figure sweeps that run before the micro-benches leave large
    resident heaps (sweep results, module-level memos).
    Generational GC then scans those heaps from inside the
    timed loops — measured at a ~13% ops/s penalty on the simulator
    hot path (the PR2->PR5 "regression" was exactly this, not access-path
    code).  Shutting the worker pool and freezing survivors takes the
    heap out of collection entirely."""
    from repro.exp import shutdown_pool

    shutdown_pool()
    gc.collect()
    gc.freeze()


def simulator_ops_per_sec() -> dict:
    """Raw hot-path rate: the 200k-access demand stream through the full
    hierarchy (cache lookups, replacement, prefetchers, DRAM timing),
    driven through ``access_batch``.  Median of three runs on a quiesced
    heap (see :func:`_quiesce_heap`) so the number tracks access-path
    cost, not allocator history.
    """
    from repro.config import SystemConfig
    from repro.system import System

    _quiesce_heap()
    n = 200_000
    addrs = [(i * 64 * 7) % (1 << 24) for i in range(n)]
    runs = []
    try:
        for _ in range(3):
            system = System(SystemConfig.paper_default())
            started = time.perf_counter()
            system.hierarchy.access_batch(0, addrs, 0, pc=0)
            runs.append(time.perf_counter() - started)
    finally:
        gc.unfreeze()
    elapsed = statistics.median(runs)
    return {
        "accesses": n,
        "runs": len(runs),
        "seconds": round(elapsed, 3),
        "ops_per_sec": round(n / elapsed),
    }


def scheduler_checkpoints_per_sec() -> dict:
    """Scheduler micro-bench: checkpoint-dense threads, fast path vs the
    heap-only slow path (``fast_path=False``)."""
    from repro.sim import Scheduler

    def body(ctx, steps):
        for _ in range(steps):
            ctx.advance(3)
            yield None

    steps = 50_000
    threads = 4
    record = {}
    for label, fast in (("fast_path", True), ("slow_path", False)):
        sched = Scheduler(fast_path=fast)
        for t in range(threads):
            # Staggered starts keep one thread globally minimal for long
            # stretches — the run-to-block pattern the attacks exhibit.
            sched.spawn(body, steps, name=f"t{t}", start_time=t * steps)
        started = time.perf_counter()
        sched.run()
        elapsed = time.perf_counter() - started
        record[label] = {
            "checkpoints": steps * threads,
            "seconds": round(elapsed, 3),
            "checkpoints_per_sec": round(steps * threads / elapsed),
            "fast_resumes": sched.fast_resumes,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all CPUs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--output", default=OUTPUT)
    parser.add_argument("--figure-pass", action="store_true",
                        help=argparse.SUPPRESS)  # internal: one figure
    # pass, JSON on stdout (spawned twice by figure_passes)
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    if args.figure_pass:
        json.dump(run_figure_pass(jobs), sys.stdout)
        return 0
    cache = None if args.no_cache else ResultCache(CACHE_DIR)

    record = {
        "code_version": code_version(),
        "jobs": jobs,
        "cache": not args.no_cache,
        "figures": {},
    }
    suite_started = time.perf_counter()
    for name, build in QUICK_SWEEPS:
        points = build()
        outcome = run_sweep(points, jobs=jobs, cache=cache)
        record["figures"][name] = {
            "points": len(points),
            "seconds": round(outcome.elapsed_seconds, 3),
            "parallel": outcome.parallel,
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
        }
        if outcome.fallback_reason:
            record["figures"][name]["fallback"] = outcome.fallback_reason
        print(f"{name}: {len(points)} points in "
              f"{outcome.elapsed_seconds:.2f}s "
              f"({outcome.cache_hits} cached, jobs={jobs})")
    record["suite_seconds"] = round(time.perf_counter() - suite_started, 3)

    print("timing simulator hot path...")
    record["simulator"] = simulator_ops_per_sec()
    print(f"simulator: {record['simulator']['ops_per_sec']:,} accesses/sec")

    print("timing scheduler checkpoints...")
    record["scheduler"] = scheduler_checkpoints_per_sec()
    fast = record["scheduler"]["fast_path"]["checkpoints_per_sec"]
    slow = record["scheduler"]["slow_path"]["checkpoints_per_sec"]
    print(f"scheduler: {fast:,}/sec fast path vs {slow:,}/sec slow path")

    print("measuring figure passes (plain + telemetry)...")
    record["figure_passes"] = figure_passes(jobs)
    record["telemetry_overhead"] = telemetry_overhead(record["figure_passes"])
    overhead = record["telemetry_overhead"]
    print(f"telemetry: plain {overhead['plain_seconds']:.2f}s -> "
          f"logged {overhead['telemetry_seconds']:.2f}s "
          f"({overhead['overhead_pct']:+.1f}%, {overhead['events']} events, "
          f"{overhead['spans']} spans, "
          f"{overhead['chain_errors']} chain errors)")

    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    # The sweep-engine section is produced by scripts/bench_sweep.py
    # (make bench-sweep) and merged into the same snapshot; a quick-bench
    # refresh must not silently drop it.
    try:
        with open(args.output) as handle:
            previous = json.load(handle)
        if "sweep_engine" in previous:
            record["sweep_engine"] = previous["sweep_engine"]
    except (OSError, ValueError):
        pass
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"suite: {record['suite_seconds']:.2f}s -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
