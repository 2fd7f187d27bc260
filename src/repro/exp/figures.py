"""Canonical sweep-point functions for the paper's figures and the CLI.

Every function here is module-level (picklable across process boundaries),
takes only JSON-able parameters, and returns a JSON-able dict — the
contract :mod:`repro.exp.runner` and the run reports build on.
The figure benchmarks and the CLI both express their sweeps through these
functions, so the parallel runner speeds up every consumer at once.

Results are bit-identical to the historical in-bench implementations:
each point builds its own :class:`repro.system.System` from a config and
all randomness is seeded per-config or per-call.  Construction is cheap
(a 64 MB-LLC machine builds in a few tens of milliseconds), so every
channel gets a fresh machine.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Any, Dict, List, Optional

from repro.config import SystemConfig
from repro.system import System

# ---------------------------------------------------------------------------
# Figs. 2 and 3 — §3.3 direct-vs-baseline attacks across LLC geometry
# ---------------------------------------------------------------------------


def _sec33_system(llc_mb: float, ways: int) -> System:
    """LRU LLC, prefetchers off: the paper's idealized one-request-per-way
    eviction setting (§3.3)."""
    base = SystemConfig.paper_default()
    hierarchy = replace(base.hierarchy, llc_size_mb=float(llc_mb),
                        llc_ways=ways, llc_replacement="lru",
                        prefetchers_enabled=False)
    return System(replace(base, hierarchy=hierarchy))


def sec33_point(llc_mb: float, ways: int = 16, bits: int = 384) -> Dict[str, float]:
    """One Fig. 2/3 point: direct + baseline throughput, eviction latency."""
    from repro.attacks import run_sec33_point

    return run_sec33_point(_sec33_system(llc_mb, ways), bits=bits)


# ---------------------------------------------------------------------------
# Fig. 8 — covert-channel throughput across LLC sizes, all seven attacks
# ---------------------------------------------------------------------------


def fig8_point(llc_mb: float) -> Dict[str, float]:
    """All-attack throughputs (Mb/s) at one LLC size (§5.3)."""
    from repro.attacks import (
        ATTACKS,
        channel_config,
        streamline_upper_bound_mbps,
    )

    base = SystemConfig.paper_default().with_llc(float(llc_mb))
    point: Dict[str, float] = {}
    for name, bits in _FIG8_BITS.items():
        # One expression per channel: no System outlives its transmission,
        # so at most one 64 MB LLC is alive at a time.
        point[_FIG8_NAMES[name]] = ATTACKS[name](
            System(channel_config(name, base))
        ).transmit_random(bits, seed=1).throughput_mbps
        if name == "streamline":
            point["Streamline-bound"] = streamline_upper_bound_mbps(
                System(base))
    return point


#: Per-attack message lengths of the canonical Fig. 8 point; quality
#: points scale these down proportionally for quick report runs.
_FIG8_BITS = {
    "drama-eviction": 64,
    "drama-clflush": 192,
    "streamline": 192,
    "dma": 384,
    "pnm-offchip": 512,
    "impact-pnm": 512,
    "impact-pum": 512,
}

_FIG8_NAMES = {
    "drama-eviction": "DRAMA-eviction",
    "drama-clflush": "DRAMA-clflush",
    "streamline": "Streamline",
    "dma": "DMA-engine",
    "pnm-offchip": "PnM-OffChip",
    "impact-pnm": "IMPACT-PnM",
    "impact-pum": "IMPACT-PuM",
}


def fig8_quality_point(llc_mb: float, bits: int = 128,
                       attacks: Optional[List[str]] = None) -> Dict[str, Any]:
    """One Fig. 8 point with full channel-quality analytics per attack.

    Runs the same seven channels as :func:`fig8_point` (or the subset
    named in ``attacks``, CLI keys like ``"impact-pnm"``), with message
    lengths scaled so ``bits`` plays the role the canonical point's 512
    does, and returns per-attack throughput *plus* BER with Wilson CI,
    mutual-information capacity, TVLA leakage t-score, and eye-diagram
    summaries — the payload ``repro report`` renders.  As in
    :func:`fig8_point`, each channel's random message uses ``seed=1``.
    """
    from repro.attacks import (
        ATTACKS,
        channel_config,
        streamline_upper_bound_mbps,
    )

    names = list(_FIG8_BITS) if attacks is None else list(attacks)
    unknown = [n for n in names if n not in _FIG8_BITS]
    if unknown:
        raise ValueError(f"unknown attack(s): {unknown}")
    base = SystemConfig.paper_default().with_llc(float(llc_mb))
    out: Dict[str, Any] = {"llc_mb": float(llc_mb), "bits": int(bits),
                           "attacks": {}}
    for cli_name in names:
        message_bits = max(16, _FIG8_BITS[cli_name] * int(bits) // 512)
        channel = ATTACKS[cli_name](System(channel_config(cli_name, base)))
        result = channel.transmit_random(message_bits, seed=1)
        threshold = channel.threshold_cycles
        # Drop the channel, and with it its System, before the next one
        # builds: at most one 64 MB LLC is alive at a time.
        del channel
        quality = result.quality(threshold)
        out["attacks"][_FIG8_NAMES[cli_name]] = {
            "throughput_mbps": result.throughput_mbps,
            "raw_throughput_mbps": result.raw_throughput_mbps,
            "cycles_per_bit": result.cycles_per_bit,
            **quality.to_dict(),
        }
    if attacks is None or "streamline" in names:
        out["attacks"]["Streamline-bound"] = {
            "throughput_mbps": streamline_upper_bound_mbps(System(base))}
    return out


def fig8_quality_sweep(sizes_mb=(8, 64), bits: int = 128,
                       attacks: Optional[List[str]] = None):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig8", fig8_quality_point, "llc_mb",
                        [float(s) for s in sizes_mb], bits=bits,
                        attacks=list(attacks) if attacks else None)


# ---------------------------------------------------------------------------
# Fig. 10 — read-mapping side channel vs bank count
# ---------------------------------------------------------------------------

FIG10_NOISE_RATE = 0.0105  # stray activations per kilocycle (§5.1)


@lru_cache(maxsize=1)
def _fig10_world():
    """The Fig. 10 victim pipeline: synthetic reference, mutated sample,
    sampled reads, and the 1024-bank base index (restriped per point).

    Built lazily once per process; all seeds are fixed, so every worker
    reconstructs the identical world.
    """
    from repro.genomics import (
        ReferenceIndex,
        generate_reference,
        mutate_genome,
        sample_reads,
    )

    reference = generate_reference(20_000, seed=31)
    sample = mutate_genome(reference, seed=32)
    reads = [r for r, _ in sample_reads(sample, num_reads=6, read_length=150,
                                        error_rate=0.002, seed=33)]
    base_index = ReferenceIndex(reference, num_banks=1024)
    return reference, reads, base_index


def _fig10_schedule(num_banks: int, rounds: int):
    """The victim's probe schedule and index occupancy for one point.

    Building the schedule means restriping the 1024-bank base index and
    replaying the read mapper — pure in (num_banks, rounds) since every
    seed in :func:`_fig10_world` is fixed.  Returns
    ``(schedule, entries_per_bank)``.
    """
    from repro.genomics import PimReadMapper

    reference, reads, base_index = _fig10_world()
    index = base_index.restripe(num_banks)
    # trace_for_reads only consults the software mapper and index, so no
    # System is needed to reconstruct the victim's schedule.
    mapper = PimReadMapper(None, reference, index)
    return (mapper.trace_for_reads(reads)[:rounds],
            index.entries_per_bank)


def fig10_point(num_banks: int, rounds: int = 100) -> Dict[str, Any]:
    """One Fig. 10 point: side-channel leakage at ``num_banks`` banks."""
    from repro.attacks import ReadMappingSideChannel

    config = (SystemConfig.paper_default()
              .with_banks(num_banks)
              .with_noise(FIG10_NOISE_RATE))
    schedule, entries_per_bank = _fig10_schedule(num_banks, rounds)
    system = System(config)
    channel = ReadMappingSideChannel(system)
    result = channel.run(schedule, entries_per_bank=entries_per_bank)
    return side_channel_payload(result)


def side_channel_payload(result) -> Dict[str, Any]:
    """JSON-able raw fields + derived metrics of a SideChannelResult."""
    return {
        "num_banks": result.num_banks,
        "rounds": result.rounds,
        "correct": result.correct,
        "missed": result.missed,
        "false_positives": result.false_positives,
        "cycles": result.cycles,
        "cpu_hz": result.cpu_hz,
        "entries_per_bank": result.entries_per_bank,
        "leaked_bits": result.leaked_bits,
        "throughput_mbps": result.throughput_mbps,
        "error_rate": result.error_rate,
        "accuracy": result.accuracy,
        "summary": result.summary(),
    }


# ---------------------------------------------------------------------------
# Fig. 11 — defense overheads on multiprogrammed workloads
# ---------------------------------------------------------------------------


def fig11_point(workload: str, max_refs: int = 60_000) -> Dict[str, Any]:
    """One Fig. 11 workload under open/crp/ctd row policies."""
    from repro.workloads import evaluate_defenses

    evaluation = evaluate_defenses(workload, max_refs=max_refs)
    policies = {
        policy: {
            "cycles": run.cycles,
            "instructions": run.instructions,
            "refs": run.refs,
            "llc_misses": run.llc_misses,
            "mpki": run.mpki,
        }
        for policy, run in evaluation.results.items()
    }
    return {
        "workload": evaluation.workload,
        "paper_mpki": evaluation.paper_mpki,
        "mpki": evaluation.measured_mpki,
        "policies": policies,
        "crp_overhead": evaluation.overhead("crp"),
        "ctd_overhead": evaluation.overhead("ctd"),
    }


# ---------------------------------------------------------------------------
# CLI sweeps — covert channels, side channel, defense security
# ---------------------------------------------------------------------------


def cli_config(llc_mb: Optional[float] = None, noise: float = 0.0,
               mapping: Optional[str] = None) -> SystemConfig:
    """The paper's default system with the CLI's ``--llc-mb``, ``--noise``
    and ``--mapping`` applied; ``None`` (and a noise rate of 0) keeps the
    default."""
    config = SystemConfig.paper_default()
    if llc_mb is not None:
        config = config.with_llc(float(llc_mb))
    if noise:
        config = config.with_noise(noise)
    if mapping is not None:
        config = replace(config, mapping=mapping)
    return config


def covert_point(attack: str, bits: int = 512, seed: int = 0,
                 llc_mb: Optional[float] = None, noise: float = 0.0,
                 mapping: Optional[str] = None) -> Dict[str, Any]:
    """One covert-channel transmission (a ``repro covert`` table row)."""
    from repro.attacks import ATTACKS, channel_config

    config = channel_config(attack, cli_config(llc_mb, noise, mapping))
    channel = ATTACKS[attack](System(config))
    result = channel.transmit_random(bits, seed=seed)
    return {
        "attack": attack,
        "throughput_mbps": result.throughput_mbps,
        "error_rate": result.error_rate,
        "cycles_per_bit": result.cycles_per_bit,
    }


def streamline_bound_point(llc_mb: Optional[float] = None, noise: float = 0.0,
                           mapping: Optional[str] = None) -> Dict[str, Any]:
    """The §5.1 analytical Streamline upper bound for one config."""
    from repro.attacks import streamline_upper_bound_mbps

    bound = streamline_upper_bound_mbps(System(cli_config(llc_mb, noise,
                                                          mapping)))
    return {"attack": "streamline (bound)", "throughput_mbps": bound}


def sidechannel_point(num_banks: int, rounds: int = 100, seed: int = 0,
                      noise: float = FIG10_NOISE_RATE) -> Dict[str, Any]:
    """One ``repro sidechannel`` run over a synthetic victim schedule;
    ``noise`` is the background activation rate (0 turns noise off)."""
    from repro.attacks import ReadMappingSideChannel, fake_schedule

    config = (SystemConfig.paper_default().with_banks(num_banks)
              .with_noise(noise))
    system = System(config)
    schedule = fake_schedule(num_banks, rounds, seed=seed)
    result = ReadMappingSideChannel(system).run(schedule)
    return side_channel_payload(result)


def defense_security_point(defense: str, bits: int = 192,
                           attack: str = "impact-pnm") -> Dict[str, Any]:
    """Security of one §6 defense against one covert channel."""
    from repro.attacks import ATTACKS
    from repro.defenses import evaluate_channel_under_defense

    report = evaluate_channel_under_defense(ATTACKS[attack], defense,
                                            bits=bits)
    return {
        "defense": defense,
        "attack": attack,
        "blocked": report.blocked,
        "error_rate": report.error_rate,
        "capacity_bits_per_symbol": report.capacity_bits_per_symbol,
        "eliminated": report.channel_eliminated,
    }


# ---------------------------------------------------------------------------
# Sweep builders (shared by benchmarks and the CLI)
# ---------------------------------------------------------------------------


def fig2_sweep(sizes_mb=(2, 4, 8, 16, 32, 64), bits: int = 384):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig2", sec33_point, "llc_mb", list(sizes_mb),
                        bits=bits)


def fig3_sweep(ways=(2, 4, 8, 16, 32, 64, 128), llc_mb: float = 16,
               bits: int = 256):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig3", sec33_point, "ways", list(ways),
                        llc_mb=llc_mb, bits=bits)


def fig8_sweep(sizes_mb=(8, 16, 32, 64)):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig8", fig8_point, "llc_mb", list(sizes_mb))


def fig10_sweep(bank_counts=(1024, 2048, 4096, 8192), rounds: int = 100):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig10", fig10_point, "num_banks", list(bank_counts),
                        rounds=rounds)


def fig11_sweep(workloads=("BC", "BFS", "CC", "TC", "PR"),
                max_refs: int = 60_000):
    from repro.exp.sweep import sweep_points

    return sweep_points("fig11", fig11_point, "workload", list(workloads),
                        max_refs=max_refs)
