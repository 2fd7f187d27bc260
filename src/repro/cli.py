"""Command-line interface: drive every experiment without writing code.

Usage::

    python -m repro table2
    python -m repro covert --attack impact-pnm --bits 512 --llc-mb 8
    python -m repro covert --attack all
    python -m repro sidechannel --banks 1024 --rounds 100
    python -m repro defenses --workload PR
    python -m repro recon --mapping xor
    python -m repro detect
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from repro import System, SystemConfig
from repro.analysis import format_table
from repro.attacks import ATTACKS, AddressReconnaissance, channel_config
from repro.detection import run_detection_experiment
from repro.exp.figures import FIG10_NOISE_RATE, cli_config


def _number(kind: type, *, zero: bool = False) -> Callable[[str], float]:
    """An argparse type: a ``kind`` above 0 (at or above 0 with ``zero``);
    anything else is a usage error."""
    def parse(text: str) -> float:
        value = kind(text)
        if not (value >= 0 if zero else value > 0):
            raise argparse.ArgumentTypeError(
                f"must be {'>= 0' if zero else '> 0'}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_table2(args: argparse.Namespace) -> int:
    config = cli_config(args.llc_mb)
    rows = [(r["component"], r["configuration"]) for r in config.describe()]
    print(format_table(["component", "configuration"], rows,
                       title="Table 2: simulation configuration"))
    return 0


def cmd_covert(args: argparse.Namespace) -> int:
    from repro.exp import run_sweep, sweep_points
    from repro.exp.figures import covert_point, streamline_bound_point

    names = list(ATTACKS) if args.attack == "all" else [args.attack]
    points = sweep_points("covert", covert_point, "attack", names,
                          bits=args.bits, seed=args.seed, llc_mb=args.llc_mb,
                          noise=args.noise, mapping=args.mapping)
    if args.attack == "all":
        points += sweep_points("covert", streamline_bound_point,
                               "llc_mb", [args.llc_mb],
                               noise=args.noise, mapping=args.mapping)
    outcome = run_sweep(points, jobs=args.jobs)
    rows = []
    for payload in outcome:
        error = (f"{payload['error_rate']:.2%}"
                 if "error_rate" in payload else "-")
        cycles = (f"{payload['cycles_per_bit']:.0f}"
                  if "cycles_per_bit" in payload else "-")
        rows.append((payload["attack"], f"{payload['throughput_mbps']:.2f}",
                     error, cycles))
    if args.attack == "all":
        rows.sort(key=lambda r: -float(r[1]))
    print(format_table(["attack", "Mb/s", "error", "cycles/bit"], rows,
                       title=f"covert channels, {args.bits} bits"))
    return 0


def cmd_sidechannel(args: argparse.Namespace) -> int:
    from repro.exp import run_sweep, sweep_points
    from repro.exp.figures import sidechannel_point

    points = sweep_points("sidechannel", sidechannel_point, "num_banks",
                          list(args.banks), rounds=args.rounds,
                          seed=args.seed, noise=args.noise)
    outcome = run_sweep(points, jobs=args.jobs)
    for payload in outcome:
        print(payload["summary"])
        print(f"leaked {payload['leaked_bits']:.0f} bits in "
              f"{payload['cycles']} cycles "
              f"({payload['correct']}/{payload['rounds']} probes decoded; "
              f"{payload['false_positives']} false positives)")
    return 0


def cmd_defenses(args: argparse.Namespace) -> int:
    from repro.exp import run_sweep, sweep_points
    from repro.exp.figures import defense_security_point, fig11_point

    points = sweep_points("defense-security", defense_security_point,
                          "defense", ["open", "mpr", "crp", "ctd"],
                          bits=args.bits)
    outcome = run_sweep(points, jobs=args.jobs)
    rows = [(p["defense"], str(p["blocked"]),
             f"{p['capacity_bits_per_symbol']:.4f}",
             "eliminated" if p["eliminated"] else "SURVIVES")
            for p in outcome]
    print(format_table(["defense", "blocked", "capacity b/sym", "verdict"],
                       rows, title="security vs IMPACT-PnM"))
    if args.workload:
        print(f"\nmeasuring {args.workload} under each row policy "
              f"(takes a minute)...")
        ev = fig11_point(args.workload, max_refs=args.max_refs)
        overheads = {"open": None, "crp": ev["crp_overhead"],
                     "ctd": ev["ctd_overhead"]}
        print(format_table(
            ["policy", "cycles", "overhead"],
            [(p, ev["policies"][p]["cycles"],
              f"{overheads[p]:+.1%}" if overheads[p] is not None
              else "baseline")
             for p in ("open", "crp", "ctd")],
            title=f"{ev['workload']}: measured MPKI {ev['mpki']:.2f} "
                  f"(paper {ev['paper_mpki']})"))
    return 0


def _print_trace_summary(path: str) -> int:
    """Summarize an existing Chrome-trace JSON (no re-run)."""
    from repro.obs import summarize_chrome_trace

    summary = summarize_chrome_trace(path)
    print(f"{path}: {summary['events']} events")
    counts = summary["counts"]
    print("events: " + ", ".join(f"{name}={counts[name]}"
                                 for name in sorted(counts)))
    rows = [(name, m["events"], m["operations"], m["busy_cycles"],
             m["queue_cycles"], m["hits"], m["empties"], m["conflicts"])
            for name, m in sorted(summary["per_requestor"].items())]
    print(format_table(
        ["requestor", "events", "ops", "busy cyc", "queue cyc", "hit",
         "empty", "conf"],
        rows, title="per-requestor activity"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment under the event tracer (``repro.obs``) and write
    a ``chrome://tracing`` / Perfetto-loadable JSON."""
    import os

    from repro import obs

    if args.summary:
        path = args.out or f"{args.experiment}.trace.json"
        if not os.path.exists(path):
            print(f"no trace file at {path}; run "
                  f"`repro trace {args.experiment}` first "
                  f"(or pass --out)", file=sys.stderr)
            return 2
        return _print_trace_summary(path)

    attack = "impact-pnm" if args.experiment == "fig7" else args.experiment
    config = channel_config(attack, cli_config(args.llc_mb))
    tracer = obs.Tracer(cpu_ghz=config.cpu_ghz)
    previous = obs.current_observer()
    obs.install(tracer)
    try:
        system = System(config, sanitize=True if args.sanitize else None)
        channel = ATTACKS[attack](system)
        result = channel.transmit_random(args.bits, seed=args.seed)
    finally:
        if previous is not None:
            obs.install(previous)
        else:
            obs.uninstall()
    out = args.out or f"{args.experiment}.trace.json"
    tracer.write_chrome(out)
    throughput = getattr(result, "throughput_mbps", None)
    if throughput is not None:
        print(f"{attack}: {args.bits} bits, {throughput:.2f} Mb/s")
    counts = tracer.counts()
    print("events: " + ", ".join(f"{name}={counts[name]}"
                                 for name in sorted(counts)))
    per_req = tracer.per_requestor()
    rows = [(name, m["operations"], m["busy_cycles"], m["queue_cycles"],
             m["hits"], m["empties"], m["conflicts"])
            for name, m in sorted(per_req.items())]
    print(format_table(
        ["requestor", "ops", "busy cyc", "queue cyc", "hit", "empty", "conf"],
        rows, title="per-requestor DRAM activity"))
    if system.sanitizer is not None:
        print(system.sanitizer.report())
    print(f"trace written to {out} (load in chrome://tracing or Perfetto)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run an experiment sweep with every point traced and write a joined
    markdown + JSON run report to ``reports/``."""
    import tempfile

    from repro.analysis.runreport import collect_run_report, write_run_report
    from repro.exp import run_sweep
    from repro.exp.figures import fig8_quality_sweep

    points = fig8_quality_sweep(args.llc_mb, bits=args.bits,
                                attacks=args.attacks)
    with tempfile.TemporaryDirectory(prefix="repro-report-") as trace_dir:
        outcome = run_sweep(points, jobs=args.jobs, trace_dir=trace_dir)
        report = collect_run_report(args.experiment, points, outcome,
                                    trace_dir)
    md_path, json_path = write_run_report(report, out_dir=args.out_dir)
    mode = "parallel" if outcome.parallel else "serial"
    print(f"{args.experiment}: {len(points)} points in "
          f"{outcome.elapsed_seconds:.1f}s ({mode}, jobs={outcome.jobs})")
    for entry in report["points"]:
        payload = entry["payload"] or {}
        attacks = payload.get("attacks", {})
        best = max((metrics.get("throughput_mbps", 0.0)
                    for metrics in attacks.values()), default=0.0)
        print(f"  {entry['label']}: {len(attacks)} channels, "
              f"best {best:.2f} Mb/s")
    print(f"report written to {md_path} and {json_path}")
    return 0


def cmd_recon(args: argparse.Namespace) -> int:
    config = cli_config(mapping=args.mapping)
    system = System(config)
    recon = AddressReconnaissance(system)
    model = recon.recover_bank_function()
    print(f"mapping under test: {config.mapping!r}")
    print(f"recovered: {model.describe()}")
    print(f"timing probes spent: {recon.timing_probes}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    rows = []
    for name in ("drama-clflush", "impact-pnm", "impact-pum"):
        reports = run_detection_experiment(
            ATTACKS[name], SystemConfig.paper_default, bits=args.bits)
        for side, report in reports.items():
            rows.append((name, side, report.accesses, report.clflushes,
                         str(report.flagged), report.reason))
    print(format_table(
        ["attack", "side", "cache accesses", "clflushes", "flagged", "reason"],
        rows, title="cache-monitor detector (Sec 3)"))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMPACT reproduction: PiM main-memory timing attacks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="print the simulated configuration")
    p.add_argument("--llc-mb", type=_number(float), default=None)
    p.set_defaults(func=cmd_table2)

    def add_jobs(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes for independent sweep points "
                 "(default: all CPUs available to the process; 1 = serial)")

    p = sub.add_parser("covert", help="run a covert channel")
    p.add_argument("--attack", choices=sorted(ATTACKS) + ["all"],
                   default="impact-pnm")
    p.add_argument("--bits", type=_number(int), default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--llc-mb", type=_number(float), default=None)
    p.add_argument("--noise", type=_number(float, zero=True), default=0.0,
                   help="background activations per kilocycle")
    p.add_argument("--mapping", choices=["row", "line", "xor"], default=None)
    add_jobs(p)
    p.set_defaults(func=cmd_covert)

    p = sub.add_parser("sidechannel", help="run the read-mapping side channel")
    p.add_argument("--banks", type=_number(int), nargs="+", default=[1024],
                   help="bank count(s); several values run as one sweep")
    p.add_argument("--rounds", type=_number(int), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=_number(float, zero=True),
                   default=FIG10_NOISE_RATE,
                   help="background activations per kilocycle (default: "
                        "%(default)s, the Fig. 10 rate; 0 turns noise off)")
    add_jobs(p)
    p.set_defaults(func=cmd_sidechannel)

    p = sub.add_parser("defenses", help="evaluate the Sec 6 defenses")
    p.add_argument("--bits", type=_number(int), default=192)
    p.add_argument("--workload", choices=["BC", "BFS", "CC", "TC", "PR"],
                   default=None)
    p.add_argument("--max-refs", type=_number(int), default=30_000)
    add_jobs(p)
    p.set_defaults(func=cmd_defenses)

    p = sub.add_parser(
        "trace",
        help="run an experiment under the event tracer (Chrome-trace JSON)")
    p.add_argument("experiment", choices=sorted(ATTACKS) + ["fig7"],
                   help="attack to trace; 'fig7' = the Fig. 7 IMPACT-PnM PoC")
    p.add_argument("--bits", type=_number(int), default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--llc-mb", type=_number(float), default=None)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path (default: <experiment>.trace.json)")
    p.add_argument("--sanitize", action="store_true",
                   help="also run the timing-invariant sanitizer")
    p.add_argument("--summary", action="store_true",
                   help="summarize an existing trace file (event counts "
                        "and per-requestor activity) without re-running")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report",
        help="run a sweep with every point traced and write a "
             "markdown+JSON run report to reports/")
    p.add_argument("experiment", choices=["fig8"],
                   help="experiment to report on")
    p.add_argument("--llc-mb", type=_number(float), nargs="+",
                   default=[8.0, 64.0],
                   help="LLC sizes (MB) to sweep")
    p.add_argument("--bits", type=_number(int), default=128,
                   help="message-length scale: attacks send their Fig. 8 "
                        "lengths scaled by bits/512 (min 16)")
    p.add_argument("--attacks", nargs="+", choices=sorted(ATTACKS),
                   default=None,
                   help="subset of channels (default: all seven)")
    p.add_argument("--out-dir", default="reports", metavar="DIR")
    add_jobs(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("recon", help="reverse-engineer the bank function")
    p.add_argument("--mapping", choices=["row", "line", "xor"], default="xor")
    p.set_defaults(func=cmd_recon)

    p = sub.add_parser("detect", help="run the cache-monitor detector")
    p.add_argument("--bits", type=_number(int), default=128)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro covert --attack all | head` and friends: the reader went
        # away, which is not an error worth a traceback.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
