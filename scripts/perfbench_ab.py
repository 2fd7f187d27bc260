"""Parent-vs-head benchmark: does the change make any workload worse?

Usage, from the repository root::

    python3 scripts/perfbench_ab.py HEAD^1

The base ref is checked out in a temporary ``git worktree`` and this
checkout's ``perfbench/`` and ``BENCHMARK.json`` are copied over it, so
both sides run identical benchmark code on their own ``src/``.  Every
workload of ``BENCHMARK.json`` runs twice per side in ABBA order (base,
head, head, base), each run ``perfbench/run.py --trace 0`` for
``run_seconds``.

For every end-to-end metric it prints each side's median and quartiles
(``perfbench.aa.summary``) and the head's shift.  It exits 1 when a head
run is incorrect, when the head fails a larger share of operations than
the base, or when a head median is worse than the base median by more
than the metric's bound.  Unlike ``perfbench.aa.verdict`` the bound is
one-sided: a faster head passes.  Both sides' output digests are
printed but not compared; tier-1's golden files pin every payload, and
an intended numeric change updates those pins.  The worktree is removed
whether the runs pass, fail or crash.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.aa import summary  # noqa: E402

#: Per workload, which side runs in each slot.
ORDER = ("base", "head", "head", "base")

Runs = Dict[str, Dict[str, List[Dict[str, Any]]]]


def run_once(root: str, workload: str, seconds: int) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run in ``root``; a crash is an incorrect run
    without metrics."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, text=True, stdout=subprocess.PIPE, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": None, "digests": [],
                "error": f"exit {proc.returncode}"}
    result = json.loads(lines[-1])
    result["digests"] = [line.split()[-1] for line in lines
                         if line.startswith("digest ")]
    return result


def _failed_share(runs: List[Dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(bench: Dict[str, Any], runs: Runs) -> Tuple[List[str], List[str]]:
    """The report lines for ``runs`` and the reasons the head fails."""
    lines: List[str] = []
    failures: List[str] = []
    for workload, sides in runs.items():
        base, head = sides["base"], sides["head"]
        lines.append(f"{workload}: head runs correct: "
                     f"{all(r['correct'] for r in head)}; failed operations "
                     f"base {_failed_share(base):.2%}, "
                     f"head {_failed_share(head):.2%}")
        digests = {side: sorted({d for r in recs for d in r["digests"]})
                   for side, recs in sides.items()}
        for side in ("base", "head"):
            lines.append(f"  digests {side}: "
                         f"{' '.join(digests[side]) or '(none)'}")
        if digests["base"] != digests["head"]:
            lines.append("  digests differ (not gated: tier-1's golden "
                         "files pin the payloads)")
        if not all(r["correct"] for r in head):
            errors = sorted({r.get("error", "incorrect") for r in head
                             if not r["correct"]})
            failures.append(f"{workload}: a head run is incorrect "
                            f"({', '.join(errors)})")
        if _failed_share(head) > _failed_share(base):
            failures.append(f"{workload}: head fails a larger share of "
                            f"operations ({_failed_share(head):.2%} vs "
                            f"{_failed_share(base):.2%})")
        if any(r["metrics"] is None for r in base + head):
            lines.append("  metrics not compared: a run crashed")
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (summary([r["metrics"][name]["value"] for r in recs])
                    for recs in (base, head))
            shift = b["median"] / a["median"] - 1.0 if a["median"] else 0.0
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) > bound * a["median"]
            lines.append(
                f"  {name:14s} base {a['median']:.4g} [{a['q1']:.4g}, "
                f"{a['q3']:.4g}] | head {b['median']:.4g} [{b['q1']:.4g}, "
                f"{b['q3']:.4g}] | shift {shift:+.3f} bound {bound} -> "
                f"{'WORSE' if worse else 'ok'}")
            if worse:
                failures.append(
                    f"{workload} {name}: head median {b['median']:.4g} vs "
                    f"base {a['median']:.4g} ({shift:+.1%}, bound "
                    f"{bound:.0%})")
    return lines, failures


def _git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref of the parent to compare with")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally below, so the worktree goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)

    scratch = tempfile.mkdtemp(prefix="perfbench-ab-")
    base_root = os.path.join(scratch, "base")
    try:
        _git("worktree", "add", "--detach", base_root, args.base)
        shutil.rmtree(os.path.join(base_root, "perfbench"),
                      ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(base_root, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base_root)
        roots = {"base": base_root, "head": ROOT}
        runs: Runs = {}
        for workload in (w["name"] for w in bench["workloads"]):
            runs[workload] = {"base": [], "head": []}
            for side in ORDER:
                result = run_once(roots[side], workload,
                                  bench["run_seconds"])
                runs[workload][side].append(result)
                wall = (result["metrics"] or {}).get("wall_s", {})
                print(f"{workload} {side}: wall_s "
                      f"{wall.get('value', float('nan')):.3f}",
                      file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_root],
                       cwd=ROOT, stderr=subprocess.DEVNULL)
        _git("worktree", "prune")
        shutil.rmtree(scratch, ignore_errors=True)

    lines, failures = compare(bench, runs)
    print(f"perfbench A/B: base {args.base} vs head, "
          f"{len(ORDER) // 2} runs per side, order {'-'.join(ORDER)}")
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL {failure}")
    print("verdict:", "worse" if failures else "no worse")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
