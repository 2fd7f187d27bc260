"""Adaptive sampling for sweeps: CI-convergence early-stop.

A fixed sweep grid spends the same repetition budget on every point, but
the points are not equally hard: a channel at BER ≈ 0 pins its Wilson
interval after a couple of repetitions, while a marginal point near the
decode threshold needs many more before its CI is worth reporting.  The
adaptive engine schedules repetitions *in rounds*: every unresolved
point gets a chunk of reps, rep ``r`` with ``seed=r + 1`` (so each rep
is an independent, deterministic, cacheable
:class:`~repro.exp.sweep.SweepPoint`), the pooled per-point statistics
are tested against a :class:`ConvergenceTarget` built from the PR 4
quality analytics (Wilson BER CI half-width, capacity-estimate
stability), converged points stop, and only the unresolved remainder
escalates — up to ``max_reps``.

Merging is deterministic: a point's repetitions are evaluated in
repetition order and pooled by summation, so an adaptive run that
happens to execute the same repetitions as a fixed grid produces
bit-identical pooled results.  Every round is one ordinary
:func:`~repro.exp.runner.run_sweep` call, so caching, traces and the
worker pool all apply unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.quality import relative_spread, wilson_halfwidth
from repro.exp.cache import ResultCache
from repro.exp.runner import SweepOutcome, run_sweep
from repro.exp.sweep import SweepPoint

#: How many of a point's latest capacity estimates the stability
#: criterion compares.
_CAPACITY_WINDOW = 3


@dataclass(frozen=True)
class ConvergenceTarget:
    """When a point's pooled statistics are *resolved*.

    ``ber_ci_halfwidth``: stop once every Bernoulli stream in the payload
    (top-level ``errors``/``bits``, or per-attack entries under
    ``attacks``) has a pooled 95% Wilson CI half-width at or below this.
    ``capacity_rel_tol``: additionally require the relative spread of the
    last three repetitions' capacity estimates at or below this.  Setting
    a criterion to ``None`` disables it; disabling both means no point
    ever early-stops (the engine degenerates to the fixed grid)."""

    ber_ci_halfwidth: Optional[float] = 0.05
    capacity_rel_tol: Optional[float] = None


@dataclass(frozen=True)
class AdaptiveConfig:
    """How a sweep's points repeat and when they stop.

    Repetition ``r`` (0-based) of a point runs it with ``seed=r + 1``.
    Every point runs at least ``min_reps`` repetitions before the
    convergence predicate may fire — the floor that keeps a lucky first
    rep from terminating a point on no evidence — then ``round_reps``
    more per round until converged or ``max_reps``."""

    min_reps: int = 2
    max_reps: int = 8
    round_reps: int = 2
    target: ConvergenceTarget = field(default_factory=ConvergenceTarget)

    def __post_init__(self) -> None:
        if self.min_reps < 1:
            raise ValueError("min_reps must be >= 1")
        if self.max_reps < self.min_reps:
            raise ValueError("max_reps must be >= min_reps")
        if self.round_reps < 1:
            raise ValueError("round_reps must be >= 1")


def extract_streams(payload: Any) -> Dict[str, Tuple[int, int]]:
    """Bernoulli ``(errors, trials)`` streams in one rep's payload.

    Two shapes are understood: a flat ``{"errors": e, "bits": n}`` dict
    (synthetic probes, single-channel points) and the fig8-quality shape
    with per-attack entries under ``"attacks"`` (entries without both
    fields — e.g. the Streamline bound — are skipped)."""
    streams: Dict[str, Tuple[int, int]] = {}
    if not isinstance(payload, dict):
        return streams
    if "errors" in payload and "bits" in payload:
        streams[""] = (int(payload["errors"]), int(payload["bits"]))
    attacks = payload.get("attacks")
    if isinstance(attacks, dict):
        for name, entry in attacks.items():
            if (isinstance(entry, dict) and "errors" in entry
                    and "bits" in entry):
                streams[str(name)] = (int(entry["errors"]),
                                      int(entry["bits"]))
    return streams


def extract_capacity(payload: Any) -> Optional[float]:
    """A capacity-style estimate from one rep's payload (mean of the
    per-attack ``mutual_information_bits`` when present), or ``None``."""
    if not isinstance(payload, dict):
        return None
    if "mutual_information_bits" in payload:
        try:
            return float(payload["mutual_information_bits"])
        except (TypeError, ValueError):
            return None
    attacks = payload.get("attacks")
    if isinstance(attacks, dict):
        values = [entry["mutual_information_bits"]
                  for entry in attacks.values()
                  if isinstance(entry, dict)
                  and "mutual_information_bits" in entry]
        if values:
            return float(sum(values) / len(values))
    return None


@dataclass
class AdaptivePointResult:
    """One declared point's adaptive outcome: its executed repetitions
    (payloads in repetition order — merging is deterministic), pooled
    per-stream statistics, and why it stopped."""

    point: SweepPoint
    payloads: List[Any] = field(default_factory=list)
    converged: bool = False
    halfwidth: Optional[float] = None
    capacity_spread: Optional[float] = None

    @property
    def reps(self) -> int:
        return len(self.payloads)

    def pooled_streams(self) -> Dict[str, Dict[str, Any]]:
        """Per-stream ``errors``/``trials``/``ber``/``ci_halfwidth`` (95%)
        pooled (summed) across this point's executed repetitions."""
        totals: Dict[str, List[int]] = {}
        for payload in self.payloads:
            for name, (errors, trials) in extract_streams(payload).items():
                entry = totals.setdefault(name, [0, 0])
                entry[0] += errors
                entry[1] += trials
        return {name: {"errors": errors, "trials": trials,
                       "ber": (errors / trials) if trials else None,
                       "ci_halfwidth": wilson_halfwidth(errors, trials)}
                for name, (errors, trials) in totals.items()}


@dataclass
class AdaptiveOutcome:
    """Results of one adaptive sweep plus its rep-budget accounting."""

    results: List[AdaptivePointResult]
    executed_reps: int
    fixed_reps: int
    rounds: int
    elapsed_seconds: float = 0.0
    sweeps: List[SweepOutcome] = field(default_factory=list)

    @property
    def rep_savings_ratio(self) -> float:
        """How many× fewer reps than the fixed ``max_reps`` grid."""
        return self.fixed_reps / max(1, self.executed_reps)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def _evaluate(state: AdaptivePointResult, config: AdaptiveConfig) -> None:
    """Update a point's convergence verdict from its pooled stats.
    Never converges below the ``min_reps`` floor."""
    target = config.target
    pooled = state.pooled_streams()
    state.halfwidth = (max(s["ci_halfwidth"] for s in pooled.values())
                      if pooled else None)
    capacity = [extract_capacity(p) for p in state.payloads]
    known = [c for c in capacity if c is not None]
    if known:
        state.capacity_spread = relative_spread(known[-_CAPACITY_WINDOW:])
    if state.reps < config.min_reps:
        state.converged = False
        return
    verdicts: List[bool] = []
    if target.ber_ci_halfwidth is not None:
        verdicts.append(state.halfwidth is not None
                        and state.halfwidth <= target.ber_ci_halfwidth)
    if target.capacity_rel_tol is not None:
        verdicts.append(state.capacity_spread is not None
                        and state.capacity_spread
                        <= target.capacity_rel_tol)
    state.converged = bool(verdicts) and all(verdicts)


def run_adaptive_sweep(points: Sequence[SweepPoint], *,
                       config: Optional[AdaptiveConfig] = None,
                       jobs: Optional[int] = None,
                       cache: Optional[ResultCache] = None,
                       trace_dir: Optional[str] = None,
                       ) -> AdaptiveOutcome:
    """Run ``points`` adaptively: repetitions in rounds, early-stopping
    points whose pooled statistics meet the convergence target.

    Each round expands every unresolved point into its next chunk of
    repetitions (seeds) and executes them as one ordinary
    :func:`run_sweep` — so the result cache, per-point traces and the
    worker pool behave exactly as in a fixed sweep.  Returns an
    :class:`AdaptiveOutcome` whose ``results`` align with ``points``.
    """
    config = config or AdaptiveConfig()
    started = time.perf_counter()
    states = [AdaptivePointResult(point=point) for point in points]
    sweeps: List[SweepOutcome] = []
    rounds = 0
    while True:
        batch: List[SweepPoint] = []
        owners: List[int] = []
        for index, state in enumerate(states):
            if state.converged or state.reps >= config.max_reps:
                continue
            if state.reps < config.min_reps:
                want = config.min_reps - state.reps
            else:
                want = config.round_reps
            want = min(want, config.max_reps - state.reps)
            for rep in range(state.reps, state.reps + want):
                batch.append(state.point.with_params(seed=rep + 1))
                owners.append(index)
        if not batch:
            break
        rounds += 1
        outcome = run_sweep(batch, jobs=jobs, cache=cache,
                            trace_dir=trace_dir)
        sweeps.append(outcome)
        for index, payload in zip(owners, outcome.results):
            states[index].payloads.append(payload)
        touched = sorted(set(owners))
        for index in touched:
            _evaluate(states[index], config)
    executed = sum(state.reps for state in states)
    return AdaptiveOutcome(
        results=states,
        executed_reps=executed,
        fixed_reps=len(points) * config.max_reps,
        rounds=rounds,
        elapsed_seconds=time.perf_counter() - started,
        sweeps=sweeps,
    )


# ---------------------------------------------------------------------------
# Synthetic probe point (tests / benches / CI smoke)
# ---------------------------------------------------------------------------

def bernoulli_probe_point(p: float = 0.1, bits: int = 256,
                          seed: int = 1) -> Dict[str, Any]:
    """Deterministic synthetic quality point: ``bits`` Bernoulli(``p``)
    error draws seeded by ``(p, bits, seed)``, payload shaped like a
    single-channel quality result (``errors``/``bits``)."""
    import random

    rng = random.Random(f"{float(p)}:{int(bits)}:{int(seed)}")
    errors = sum(1 for _ in range(int(bits)) if rng.random() < float(p))
    return {"p": float(p), "bits": int(bits), "seed": int(seed),
            "errors": errors}
