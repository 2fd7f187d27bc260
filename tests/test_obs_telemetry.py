"""Tests for the sweep telemetry stack (:mod:`repro.obs.telemetry`).

Unit coverage for the event sink and chain verification runs
in-process; the integration tests drive real sweeps (pool, serial, and
forced serial-fallback) with the event log on, then assert every
executed point left one complete causal chain — no orphan spans, no
duplicate span IDs, retries only behind explicit markers.
"""

import json
import os
import random
import time

import pytest

from repro.exp import WorkerPool, run_sweep, shutdown_pool
from repro.exp.runner import (
    PoolUnavailableError,
    metrics_path,
    point_slug,
)
from repro.exp.sweep import SweepPoint
from repro.obs import telemetry
from repro.obs import top as obs_top


def tele_point(value=0, delay=0.0):
    if delay:
        time.sleep(delay)
    return {"value": value}


def failing_tele_point(value=0):
    raise ValueError(f"bad point {value}")


def crash_once_point(sentinel):
    """Kills its worker on first run; succeeds on the retry.  Whichever
    executor atomically creates the sentinel is the one that dies."""
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return {"retried": True}
    os._exit(1)


def _points(values, fn=tele_point, **extra):
    return [SweepPoint("tele", fn, {"value": v, **extra}) for v in values]


@pytest.fixture
def tele_dir(tmp_path, monkeypatch):
    """Event log switched on for this test, sink state isolated."""
    directory = str(tmp_path / "events")
    monkeypatch.setenv(telemetry.ENV_TELEMETRY_DIR, directory)
    telemetry.reset_sink()
    yield directory
    telemetry.reset_sink()


# ---------------------------------------------------------------------------
# Event sink
# ---------------------------------------------------------------------------

class TestEventSink:
    def test_disabled_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv(telemetry.ENV_TELEMETRY_DIR, raising=False)
        telemetry.reset_sink()
        assert not telemetry.enabled()
        telemetry.emit("point_queued", span_id="span-x")  # must not raise
        assert list(tmp_path.iterdir()) == []

    def test_emit_roundtrip(self, tele_dir):
        assert telemetry.enabled()
        telemetry.emit("point_queued", run_id="run-a", span_id="span-a",
                       point_slug="p1")
        telemetry.emit("point_committed", run_id="run-a", span_id="span-a",
                       point_slug="p1", elapsed_s=0.5)
        events = telemetry.read_events(tele_dir)
        assert [e["event"] for e in events] == ["point_queued",
                                               "point_committed"]
        assert all(e["pid"] == os.getpid() for e in events)
        assert all(e["run_id"] == "run-a" for e in events)
        assert events[1]["elapsed_s"] == 0.5
        assert events[0]["ts"] <= events[1]["ts"]

    def test_ambient_ids_from_env(self, tele_dir, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_RUN_ID, "run-env")
        monkeypatch.setenv(telemetry.ENV_SPAN_ID, "span-env")
        telemetry.emit("point_start")
        (event,) = telemetry.read_events(tele_dir)
        assert event["run_id"] == "run-env"
        assert event["span_id"] == "span-env"

    def test_read_skips_torn_lines(self, tele_dir):
        telemetry.emit("point_queued", span_id="span-ok")
        path = os.path.join(tele_dir, "events-999999.ndjson")
        with open(path, "w") as handle:
            handle.write('{"event":"point_start","span_id":"s2","ts":1}\n')
            handle.write('{"event":"point_end","span_id"')  # torn mid-write
        events = telemetry.read_events(tele_dir)
        assert {e["event"] for e in events} == {"point_queued",
                                               "point_start"}

    def test_ids_are_unique(self):
        assert telemetry.new_run_id() != telemetry.new_run_id()
        assert telemetry.new_span_id().startswith("span-")
        assert telemetry.new_run_id().startswith("run-")


# ---------------------------------------------------------------------------
# Chain verification
# ---------------------------------------------------------------------------

def _chain(span, *names, slug="p"):
    return [{"event": name, "span_id": span, "point_slug": slug, "ts": i}
            for i, name in enumerate(names)]


class TestVerifyChains:
    def test_complete_chain_passes(self):
        events = _chain("s1", "point_queued", "point_dispatched",
                        "point_start", "point_end", "point_committed")
        assert telemetry.verify_chains(events) == []

    def test_orphan_span_flagged(self):
        events = _chain("s1", "point_start", "point_committed")
        assert any("orphan" in p for p in telemetry.verify_chains(events))

    def test_duplicate_queue_flagged(self):
        events = _chain("s1", "point_queued", "point_queued",
                        "point_committed")
        assert any("queued 2 times" in p
                   for p in telemetry.verify_chains(events))

    def test_missing_terminal_flagged(self):
        events = _chain("s1", "point_queued", "point_start")
        assert any("incomplete" in p
                   for p in telemetry.verify_chains(events))

    def test_double_commit_flagged(self):
        events = _chain("s1", "point_queued", "point_committed",
                        "point_committed")
        assert any("2 terminal" in p
                   for p in telemetry.verify_chains(events))
        # A retry licenses one more execution, not one more commit.
        retried = _chain("s1", "point_queued", "point_dispatched",
                         "point_start", "point_end", "point_committed",
                         "point_retried", "point_start", "point_end",
                         "point_committed")
        assert any("committed 2 times" in p
                   for p in telemetry.verify_chains(retried))

    def test_retry_marker_excuses_repeats(self):
        events = _chain("s1", "point_queued", "point_start",
                        "point_retried", "point_start", "point_committed")
        assert telemetry.verify_chains(events) == []
        # Without the marker, the same double execution is a problem.
        bad = [e for e in events if e["event"] != "point_retried"]
        assert any("without a point_retried" in p
                   for p in telemetry.verify_chains(bad))
        # One marker excuses one repeat, not two.
        thrice = _chain("s1", "point_queued", "point_start", "point_retried",
                        "point_start", "point_start", "point_committed")
        assert any("3 executions" in p
                   for p in telemetry.verify_chains(thrice))
        # Terminal events follow the same rule: one per execution.
        failed = _chain("s1", "point_queued", "point_start", "point_failed",
                        "point_retried", "point_start", "point_failed",
                        "point_failed")
        assert any("3 terminal events" in p
                   for p in telemetry.verify_chains(failed))

    def test_mixed_slugs_flagged(self):
        events = (_chain("s1", "point_queued", slug="a")
                  + _chain("s1", "point_committed", slug="b"))
        assert any("multiple point slugs" in p
                   for p in telemetry.verify_chains(events))

    def test_causal_chains_groups_by_span(self):
        events = (_chain("s1", "point_queued", "point_committed")
                  + _chain("s2", "point_queued")
                  + [{"event": "run_start", "run_id": "r", "ts": 0}])
        chains = telemetry.causal_chains(events)
        assert set(chains) == {"s1", "s2"}
        assert len(chains["s1"]) == 2


# ---------------------------------------------------------------------------
# Sweep integration: every executed point leaves one complete chain
# ---------------------------------------------------------------------------

def _pool_or_skip():
    pool = WorkerPool()
    try:
        pool.ensure(1)
    except (OSError, PermissionError, RuntimeError, ImportError) as exc:
        pool.shutdown()
        pytest.skip(f"worker processes unavailable: {exc}")
    return pool


def _assert_complete(events, points, outcome, expect_spans=None):
    assert telemetry.verify_chains(events) == []
    chains = telemetry.causal_chains(events)
    expected = len(points) if expect_spans is None else expect_spans
    assert len(chains) == expected  # one span per executed point, no dups
    committed = [e for e in events if e["event"] == "point_committed"]
    assert len(committed) == expected
    assert {e["run_id"] for e in committed} == {outcome.run_id}
    slugs = {e.get("point_slug") for e in committed}
    assert slugs == {point_slug(p) for p in points}


class TestSweepChains:
    def test_pool_sweep_complete_chains(self, tele_dir):
        rng = random.Random(20260808)
        points = _points(range(6), delay=rng.uniform(0.0, 0.01))
        outcome = run_sweep(points, jobs=3)
        assert outcome.run_id
        assert [r["value"] for r in outcome.results] == list(range(6))
        events = telemetry.read_events(tele_dir)
        _assert_complete(events, points, outcome)
        names = {e["event"] for e in events}
        assert {"run_start", "run_end", "point_queued", "point_dispatched",
                "point_start", "point_end"} <= names
        if outcome.parallel:
            # Worker-side records really came from other processes.
            starts = [e for e in events if e["event"] == "point_start"]
            assert any(e["pid"] != os.getpid() for e in starts)

    def test_serial_sweep_complete_chains(self, tele_dir):
        points = _points(range(4))
        outcome = run_sweep(points, jobs=1)
        assert not outcome.parallel
        events = telemetry.read_events(tele_dir)
        _assert_complete(events, points, outcome)
        # Serial: every record from this process.
        assert {e["pid"] for e in events} == {os.getpid()}
        # The log's exact size: run_start and run_end, then queued,
        # dispatched, start, end and committed per executed point.
        assert len(events) == 2 + 5 * len(points)

    def test_pool_fallback_marks_retries(self, tele_dir, monkeypatch):
        from repro.exp import runner

        def refuse(*args, **kwargs):
            raise PoolUnavailableError("forced by test")

        monkeypatch.setattr(runner, "_run_parallel", refuse)
        points = _points(range(4))
        outcome = run_sweep(points, jobs=4)
        assert outcome.fallback_reason
        assert [r["value"] for r in outcome.results] == list(range(4))
        events = telemetry.read_events(tele_dir)
        _assert_complete(events, points, outcome)
        retried = [e for e in events if e["event"] == "point_retried"]
        assert len(retried) == len(points)
        assert all(e["reason"] == "pool_fallback" for e in retried)

    def test_failed_point_gets_failed_terminal(self, tele_dir):
        points = _points([7], fn=failing_tele_point)
        with pytest.raises(ValueError, match="bad point 7"):
            run_sweep(points, jobs=1)
        events = telemetry.read_events(tele_dir)
        assert telemetry.verify_chains(events) == []
        (failed,) = [e for e in events if e["event"] == "point_failed"]
        assert "ValueError" in failed["error"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_sweep_closes_its_run(self, tele_dir, jobs):
        points = _points(range(4))
        points[2] = SweepPoint("tele", failing_tele_point, {"value": 2})
        with pytest.raises(ValueError, match="bad point 2"):
            run_sweep(points, jobs=jobs)
        events = telemetry.read_events(tele_dir)
        (start,) = [e for e in events if e["event"] == "run_start"]
        (end,) = [e for e in events if e["event"] == "run_end"]
        assert end["run_id"] == start["run_id"]
        assert end["ok"] is False
        assert "ValueError: bad point 2" in end["error"]

    def test_worker_death_falls_back_with_clean_chains(self, tele_dir,
                                                       tmp_path):
        """A pool worker really dies mid-sweep: the points the pool did
        not finish run once more in this process, each behind one
        pool_fallback marker, and every span commits exactly once."""
        _pool_or_skip().shutdown()
        points = _points(range(6))
        points[3] = SweepPoint("tele", crash_once_point,
                               {"sentinel": str(tmp_path / "died-once")})
        try:
            outcome = run_sweep(points, jobs=2)
        finally:
            shutdown_pool()
        assert outcome.fallback_reason
        # The sentinel now exists, so the crash point returns in-process.
        assert outcome.results == run_sweep(points, jobs=1).results
        events = [e for e in telemetry.read_events(tele_dir)
                  if e.get("run_id") == outcome.run_id]
        _assert_complete(events, points, outcome)
        chains = telemetry.causal_chains(events)
        for chain in chains.values():
            names = [e["event"] for e in chain]
            assert names.count("point_committed") == 1
            assert names.count("point_start") <= 2
        retried = [e for e in events if e["event"] == "point_retried"]
        assert retried
        assert all(e["reason"] == "pool_fallback" for e in retried)

    def test_cached_points_skip_spans(self, tele_dir, tmp_path):
        from repro.exp import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        points = _points(range(3))
        first = run_sweep(points, jobs=1, cache=cache)
        second = run_sweep(points, jobs=1, cache=cache)
        assert second.cache_hits == 3
        events = telemetry.read_events(tele_dir)
        cached = [e for e in events if e["event"] == "point_cached"]
        assert len(cached) == 3
        assert {e["run_id"] for e in cached} == {second.run_id}
        # Only the first sweep's points have execution spans.
        _assert_complete(
            [e for e in events if e.get("run_id") != second.run_id],
            points, first)

    def test_run_id_minted_even_with_log_off(self, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_TELEMETRY_DIR, raising=False)
        telemetry.reset_sink()
        outcome = run_sweep(_points([1]), jobs=1)
        assert outcome.run_id and outcome.run_id.startswith("run-")
        assert os.environ.get(telemetry.ENV_RUN_ID) is None  # restored


# ---------------------------------------------------------------------------
# Artifact stamping: traces and metrics JSONs join the event log
# ---------------------------------------------------------------------------

class TestArtifactStamping:
    def test_metrics_and_trace_carry_provenance(self, tele_dir, tmp_path):
        from repro.obs import summarize_chrome_trace

        trace_dir = str(tmp_path / "traces")
        metrics_dir = str(tmp_path / "metrics")
        points = _points([5])
        outcome = run_sweep(points, jobs=1, trace_dir=trace_dir,
                            metrics_dir=metrics_dir)
        with open(metrics_path(metrics_dir, points[0])) as handle:
            metrics = json.load(handle)
        assert metrics["run_id"] == outcome.run_id
        assert metrics["pid"] == os.getpid()
        assert metrics["point_slug"] == point_slug(points[0])
        events = telemetry.read_events(tele_dir)
        (queued,) = [e for e in events if e["event"] == "point_queued"]
        assert metrics["span_id"] == queued["span_id"]
        trace_file = os.path.join(trace_dir,
                                  f"{point_slug(points[0])}.trace.json")
        with open(trace_file) as handle:
            other = json.load(handle)["otherData"]
        assert other["run_id"] == outcome.run_id
        assert other["span_id"] == queued["span_id"]
        summary = summarize_chrome_trace(trace_file)
        assert summary["provenance"]["run_id"] == outcome.run_id


# ---------------------------------------------------------------------------
# repro top rendering
# ---------------------------------------------------------------------------

class TestTopRendering:
    def test_fleet_state_reconstruction(self):
        events = [
            {"event": "run_start", "run_id": "r1", "ts": 0.0},
            {"event": "point_queued", "run_id": "r1", "span_id": "s1",
             "point_slug": "a", "ts": 0.1},
            {"event": "point_dispatched", "run_id": "r1", "span_id": "s1",
             "point_slug": "a", "worker_pid": 7, "ts": 0.2},
            {"event": "point_end", "span_id": "s1", "elapsed_s": 0.3,
             "ts": 0.5},
            {"event": "point_committed", "run_id": "r1", "span_id": "s1",
             "point_slug": "a", "ts": 0.6},
            {"event": "point_queued", "run_id": "r1", "span_id": "s2",
             "point_slug": "b", "ts": 0.7},
            {"event": "point_dispatched", "run_id": "r1", "span_id": "s2",
             "point_slug": "b", "worker_pid": 8, "ts": 0.8},
            {"event": "point_cached", "run_id": "r2", "point_slug": "c",
             "ts": 0.9},
        ]
        state = obs_top.fleet_state(events, now=1.8)
        assert state["runs"] == 2
        assert state["spans"] == 2
        assert state["done_spans"] == 1
        (flight,) = state["in_flight"]
        assert flight["span_id"] == "s2"
        assert flight["age_s"] == pytest.approx(1.0)
        assert state["workers"]["7"]["points"] == 1
        frame = obs_top.render_state_frame(state, source="unit")
        assert "points 1/2 done" in frame and "in flight 1" in frame

    def test_frame_from_real_sweep(self, tele_dir):
        outcome = run_sweep(_points(range(3)), jobs=1)
        frame = obs_top.frame_from_dir(tele_dir)
        assert "points 3/3 done" in frame
        assert "runs 1" in frame
        assert outcome.run_id  # the sweep really ran under telemetry

    def test_frame_from_empty_dir(self, tmp_path):
        frame = obs_top.frame_from_dir(str(tmp_path))
        assert "points 0/0 done" in frame
