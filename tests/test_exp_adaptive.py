"""Tests for the adaptive sweep engine (:mod:`repro.exp.adaptive`) and
the runner's choice between the worker pool and this process."""

import pytest

from repro.analysis.quality import relative_spread, wilson_halfwidth
from repro.exp import (
    AdaptiveConfig,
    ConvergenceTarget,
    ResultCache,
    SweepPoint,
    bernoulli_probe_point,
    run_adaptive_sweep,
    run_sweep,
    sweep_points,
)
from repro.exp import runner as runner_mod
from repro.exp.adaptive import extract_streams
from repro.exp.figures import fig8_quality_point


def probe(p, bits):
    return SweepPoint("bernoulli", bernoulli_probe_point,
                      {"p": p, "bits": bits})


def value_point(value):
    """Module-level (picklable) trivial point."""
    return {"value": value, "double": value * 2}


# ---------------------------------------------------------------------------
# Convergence predicates on synthetic streams
# ---------------------------------------------------------------------------

class TestConvergenceMath:
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_wilson_halfwidth_monotone_in_trials(self, rate):
        """More trials at the same empirical rate can only tighten the
        interval — the property the early-stop predicate relies on."""
        widths = [wilson_halfwidth(int(rate * n), n)
                  for n in (20, 80, 320, 1280, 5120)]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert all(0.0 < w < 1.0 for w in widths)

    def test_wilson_halfwidth_matches_interval(self):
        from repro.analysis.quality import wilson_interval

        lo, hi = wilson_interval(3, 100)
        assert wilson_halfwidth(3, 100) == pytest.approx((hi - lo) / 2)

    def test_relative_spread(self):
        assert relative_spread([]) is None
        assert relative_spread([1.0]) is None
        assert relative_spread([2.0, 2.0, 2.0]) == 0.0
        assert relative_spread([1.0, 2.0]) == pytest.approx(2.0 / 3.0)

    def test_extract_streams_flat_and_fig8_shapes(self):
        assert extract_streams({"errors": 3, "bits": 100}) == {"": (3, 100)}
        fig8 = {"attacks": {"IMPACT-PnM": {"errors": 1, "bits": 64},
                            "Streamline-bound": {"capacity": 2.0}}}
        assert extract_streams(fig8) == {"IMPACT-PnM": (1, 64)}
        assert extract_streams(None) == {}


# ---------------------------------------------------------------------------
# The adaptive engine (serial: deterministic and fast)
# ---------------------------------------------------------------------------

class TestAdaptiveEngine:
    def test_early_stop_never_before_min_rep_floor(self):
        """A point whose very first rep would satisfy the CI target must
        still run the full ``min_reps`` floor."""
        config = AdaptiveConfig(min_reps=3, max_reps=6, round_reps=1,
                                target=ConvergenceTarget(
                                    ber_ci_halfwidth=0.2))
        outcome = run_adaptive_sweep([probe(0.0, 5000)], config=config,
                                     jobs=1)
        (result,) = outcome.results
        assert result.converged
        assert result.reps == 3
        assert result.halfwidth < 0.01  # far past target: floor held it

    def test_hard_point_escalates_to_max_reps(self):
        config = AdaptiveConfig(min_reps=2, max_reps=5, round_reps=2,
                                target=ConvergenceTarget(
                                    ber_ci_halfwidth=0.001))
        outcome = run_adaptive_sweep([probe(0.5, 20)], config=config,
                                     jobs=1)
        (result,) = outcome.results
        assert not result.converged
        assert result.reps == config.max_reps
        assert outcome.executed_reps == config.max_reps

    def test_disabled_target_degenerates_to_fixed_grid(self):
        config = AdaptiveConfig(min_reps=1, max_reps=4, round_reps=2,
                                target=ConvergenceTarget(
                                    ber_ci_halfwidth=None))
        outcome = run_adaptive_sweep([probe(0.1, 64)], config=config,
                                     jobs=1)
        assert outcome.executed_reps == 4
        assert outcome.rep_savings_ratio == 1.0

    def test_merged_adaptive_bit_identical_to_fixed_grid(self):
        """Seeded reps pool to exactly the fixed grid's statistics: the
        adaptive run's payloads are the fixed grid's payloads, rep for
        rep, and the pooled errors are their plain sum."""
        config = AdaptiveConfig(min_reps=2, max_reps=4, round_reps=1,
                                target=ConvergenceTarget(
                                    ber_ci_halfwidth=None))
        declared = probe(0.2, 128)
        adaptive = run_adaptive_sweep([declared], config=config, jobs=1)
        (result,) = adaptive.results
        fixed_points = [declared.with_params(seed=rep + 1)
                        for rep in range(config.max_reps)]
        fixed = run_sweep(fixed_points, jobs=1)
        assert result.payloads == list(fixed.results)
        pooled = result.pooled_streams()[""]
        assert pooled["errors"] == sum(p["errors"] for p in fixed.results)
        assert pooled["trials"] == sum(p["bits"] for p in fixed.results)

    def test_converged_run_is_a_prefix_of_the_fixed_grid(self):
        config = AdaptiveConfig(min_reps=2, max_reps=6, round_reps=2,
                                target=ConvergenceTarget(
                                    ber_ci_halfwidth=0.05))
        declared = probe(0.0, 1000)
        outcome = run_adaptive_sweep([declared], config=config, jobs=1)
        (result,) = outcome.results
        assert result.converged and result.reps < config.max_reps
        fixed_points = [declared.with_params(seed=rep + 1)
                        for rep in range(config.max_reps)]
        fixed = run_sweep(fixed_points, jobs=1)
        assert result.payloads == list(fixed.results)[:result.reps]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(min_reps=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(min_reps=3, max_reps=2)
        with pytest.raises(ValueError):
            AdaptiveConfig(round_reps=0)

    def test_savings_accounting(self):
        config = AdaptiveConfig(min_reps=2, max_reps=8, round_reps=2,
                                target=ConvergenceTarget(
                                    ber_ci_halfwidth=0.05))
        outcome = run_adaptive_sweep([probe(0.0, 2000)], config=config,
                                     jobs=1)
        assert outcome.fixed_reps == 8
        assert outcome.executed_reps == 2
        assert outcome.rep_savings_ratio == pytest.approx(4.0)

    def test_fig8_quality_sweep_stops_at_the_rep_floor(self):
        """The fig8 quality sweep at 8 and 64 MB: every BER stream of both
        points meets the 0.05 CI target at the 2-rep floor, so the sweep
        runs 4 reps where the fixed grid runs 16."""
        points = sweep_points("fig8-quality", fig8_quality_point, "llc_mb",
                              [8.0, 64.0], bits=192)
        config = AdaptiveConfig(min_reps=2, max_reps=8, round_reps=2,
                                target=ConvergenceTarget(
                                    ber_ci_halfwidth=0.05))
        outcome = run_adaptive_sweep(points, config=config, jobs=1)
        assert (outcome.executed_reps, outcome.fixed_reps) == (4, 16)
        assert all(result.converged for result in outcome.results)


# ---------------------------------------------------------------------------
# Where run_sweep executes: the worker pool or this process
# ---------------------------------------------------------------------------

class TestBackendResolution:
    def test_auto_picks_pool_only_when_it_helps(self, monkeypatch, tmp_path):
        """The pool runs a sweep only when ``jobs > 1`` and more than one
        point is pending (result-cache hits do not count)."""
        calls = []

        def fake_pool(points, jobs, on_result):
            calls.append((len(points), jobs))
            for index, point in enumerate(points):
                on_result(index, point.run())

        monkeypatch.setattr(runner_mod, "_run_parallel", fake_pool)
        points = [SweepPoint("exp", value_point, {"value": v})
                  for v in (1, 2, 3, 4)]
        assert run_sweep(points, jobs=4).parallel
        assert calls == [(4, 4)]
        assert not run_sweep(points[:1], jobs=4).parallel
        assert not run_sweep(points, jobs=1).parallel
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep(points[:3], jobs=1, cache=cache)
        outcome = run_sweep(points, jobs=4, cache=cache)
        assert not outcome.parallel and outcome.cache_hits == 3
        assert calls == [(4, 4)]
