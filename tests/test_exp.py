"""Tests for the parallel sweep-execution subsystem (:mod:`repro.exp`)."""

import errno
import json
import os
from pathlib import Path

import pytest

from repro.exp import (
    ResultCache,
    SweepPoint,
    WorkerPool,
    code_version,
    default_jobs,
    metrics_path,
    point_slug,
    run_sweep,
    shutdown_pool,
    sweep_points,
)
from repro.exp.figures import fig8_sweep

CALLS = {"n": 0}


def counting_point(value):
    """Module-level (picklable) point that records how often it runs."""
    CALLS["n"] += 1
    return {"value": value, "double": value * 2}


def failing_point():
    raise RuntimeError("boom")


def pid_point(value):
    """Reports which process ran the point (pool-reuse assertions)."""
    import os

    return {"value": value, "pid": os.getpid()}


# ---------------------------------------------------------------------------
# Sweep points
# ---------------------------------------------------------------------------

class TestSweepPoint:
    def test_builder_varies_axis_and_fixes_common(self):
        points = sweep_points("exp", counting_point, "value", [1, 2, 3])
        assert [p.params["value"] for p in points] == [1, 2, 3]
        assert all(p.experiment == "exp" for p in points)
        assert points[0].label == "exp[value=1]"

    def test_run_invokes_fn_with_params(self):
        point = SweepPoint("exp", counting_point, params={"value": 21})
        assert point.run() == {"value": 21, "double": 42}

    def test_rejects_closures_and_lambdas(self):
        with pytest.raises(ValueError, match="module-level"):
            SweepPoint("exp", lambda: None)

        def local_fn():
            return None

        with pytest.raises(ValueError, match="module-level"):
            SweepPoint("exp", local_fn)

    def test_describe_without_label(self):
        point = SweepPoint("exp", counting_point, params={"value": 5})
        assert point.describe() == "exp(value=5)"


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        assert ResultCache.is_missing(cache.get("exp", {"a": 1}))
        cache.put("exp", {"a": 1}, {"answer": 42})
        assert cache.get("exp", {"a": 1}) == {"answer": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_params_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"answer": 42})
        assert ResultCache.is_missing(cache.get("exp", {"a": 2}))
        assert ResultCache.is_missing(cache.get("other", {"a": 1}))

    def test_code_version_change_invalidates(self, tmp_path):
        """A different code version is a different key: editing the
        simulator must never serve stale figures."""
        ResultCache(tmp_path, version="v1").put("exp", {"a": 1}, {"r": 1})
        newer = ResultCache(tmp_path, version="v2")
        assert ResultCache.is_missing(newer.get("exp", {"a": 1}))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        """Anything but a JSON object with a payload is a miss for lookups
        and a stale entry for maintenance."""
        cache = ResultCache(tmp_path, version="v1")
        for text in ("not json{", "[]", "null", "{}"):
            cache.put("exp", {"a": 1}, {"r": 1})
            Path(cache.path_for("exp", {"a": 1})).write_text(text)
            assert ResultCache.is_missing(cache.get("exp", {"a": 1})), text
            assert cache.stats()["stale_entries"] == 1, text

    def test_entries_record_provenance(self, tmp_path):
        cache = ResultCache(tmp_path, version="v7")
        cache.put("exp", {"a": 1}, {"r": 1})
        raw = json.loads(Path(cache.path_for("exp", {"a": 1})).read_text())
        assert raw["experiment"] == "exp"
        assert raw["code_version"] == "v7"
        assert raw["params"] == {"a": 1}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"r": 1})
        cache.clear()
        assert ResultCache.is_missing(cache.get("exp", {"a": 1}))

    def test_default_version_is_code_hash(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.version == code_version()
        assert len(code_version()) == 16
        int(code_version(), 16)  # hex digest prefix

    def test_eviction_caps_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1", max_entries=2)
        for i in range(5):
            cache.put("exp", {"a": i}, {"r": i})
        assert cache.entry_count() <= 2
        assert cache.evictions >= 3

    def test_eviction_prefers_stale_code_versions(self, tmp_path):
        """Entries from old code versions can never match a lookup again,
        so the LRU bound removes them before any live entry."""
        old = ResultCache(tmp_path, version="v1", max_entries=None)
        for i in range(3):
            old.put("exp", {"a": i}, {"r": i})
        new = ResultCache(tmp_path, version="v2", max_entries=4)
        for i in range(3):
            new.put("exp", {"b": i}, {"r": i})
        assert new.entry_count() == 4
        for i in range(3):  # every live entry survived the eviction
            assert new.get("exp", {"b": i}) == {"r": i}
        assert new.stats()["stale_entries"] == 1

    def test_concurrent_writers_of_one_entry_both_commit(self, tmp_path,
                                                         monkeypatch):
        """A second cache on the same directory commits the same entry
        while the first writer is mid-dump: both puts succeed and no temp
        file is left behind."""
        from repro.exp import cache as cache_module

        real_dump = json.dump
        first = ResultCache(tmp_path, version="v1")
        second = ResultCache(tmp_path, version="v1")
        nested = []

        def dump(obj, handle, **kwargs):
            if not nested:
                nested.append(True)
                second.put("exp", {"a": 1}, {"writer": 2})
            real_dump(obj, handle, **kwargs)

        monkeypatch.setattr(cache_module.json, "dump", dump)
        path = first.put("exp", {"a": 1}, {"writer": 1})
        assert nested
        assert first.get("exp", {"a": 1}) == {"writer": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [Path(path).name, ResultCache.INDEX_NAME])

    def test_failed_put_removes_its_temp_file(self, tmp_path, monkeypatch):
        from repro.exp import cache as cache_module

        def dump(obj, handle, **kwargs):
            raise TypeError("unserializable")

        cache = ResultCache(tmp_path, version="v1")
        monkeypatch.setattr(cache_module.json, "dump", dump)
        with pytest.raises(TypeError):
            cache.put("exp", {"a": 1}, {"r": 1})
        assert list(tmp_path.iterdir()) == []

    def test_prune_drops_only_stale_versions(self, tmp_path):
        ResultCache(tmp_path, version="v1",
                    max_entries=None).put("exp", {"a": 1}, {"r": 1})
        cache = ResultCache(tmp_path, version="v2", max_entries=None)
        cache.put("exp", {"b": 1}, {"r": 2})
        assert cache.prune() == 1
        assert cache.get("exp", {"b": 1}) == {"r": 2}
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["stale_entries"] == 0


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class TestRunSweep:
    def test_serial_jobs_1(self):
        points = sweep_points("exp", counting_point, "value", [1, 2, 3])
        outcome = run_sweep(points, jobs=1)
        assert outcome.results == [{"value": v, "double": 2 * v}
                                   for v in (1, 2, 3)]
        assert outcome.jobs == 1
        assert not outcome.parallel

    def test_outcome_is_sequence_like(self):
        points = sweep_points("exp", counting_point, "value", [4, 5])
        outcome = run_sweep(points, jobs=1)
        assert len(outcome) == 2
        assert outcome[1]["value"] == 5
        assert [p["value"] for p in outcome] == [4, 5]

    def test_cache_second_run_runs_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        points = sweep_points("exp", counting_point, "value", [1, 2])
        before = CALLS["n"]
        first = run_sweep(points, jobs=1, cache=cache)
        assert CALLS["n"] == before + 2
        assert first.cache_misses == 2 and first.cache_hits == 0
        second = run_sweep(points, jobs=1, cache=cache)
        assert CALLS["n"] == before + 2  # every point served from disk
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert second.results == first.results

    def test_cache_respects_param_changes(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        run_sweep(sweep_points("exp", counting_point, "value", [1]),
                  jobs=1, cache=cache)
        before = CALLS["n"]
        outcome = run_sweep(sweep_points("exp", counting_point, "value", [9]),
                            jobs=1, cache=cache)
        assert CALLS["n"] == before + 1
        assert outcome.cache_misses == 1

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_default_jobs_honors_cpu_affinity(self, monkeypatch):
        """On interpreters without os.process_cpu_count, the affinity mask
        (cgroup/taskset-restricted CI) wins over the raw CPU count."""
        import os

        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_jobs() == 3

    def test_default_jobs_survives_affinity_failure(self, monkeypatch):
        import os

        def broken(pid):
            raise OSError("no affinity")

        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        assert default_jobs() >= 1

    def test_failing_point_propagates_serially(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep([SweepPoint("exp", failing_point)], jobs=1)


class TestMetricsDir:
    def test_point_slug_is_filesystem_safe(self):
        point = SweepPoint("exp", counting_point,
                           params={"value": 1}, label="fig8[llc_mb=8.0]")
        slug = point_slug(point)
        assert "/" not in slug and " " not in slug
        assert metrics_path("m", point).endswith(f"{slug}.metrics.json")

    def test_run_sweep_writes_per_point_metrics(self, tmp_path):
        points = sweep_points("exp", counting_point, "value", [1, 2])
        outcome = run_sweep(points, jobs=1, metrics_dir=str(tmp_path))
        assert len(outcome) == 2
        for point in points:
            data = json.loads(Path(metrics_path(str(tmp_path),
                                                point)).read_text())
            assert data["label"] == point.describe()
            # Every executed point is profiled, even a trivial one.
            assert data["phases"]["point"]["calls"] == 1

    def test_metrics_env_is_restored(self, tmp_path):
        import os
        assert "REPRO_METRICS_DIR" not in os.environ
        run_sweep(sweep_points("exp", counting_point, "value", [1]),
                  jobs=1, metrics_dir=str(tmp_path))
        assert "REPRO_METRICS_DIR" not in os.environ


class TestParallelEqualsSerial:
    """The acceptance criterion: fanning a sweep out across processes
    changes wall-clock time only, never the numbers."""

    def test_fig8_slice_parallel_equals_serial(self):
        points = fig8_sweep((8, 16))
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        # Bit-identical floats, not approximate equality.
        assert parallel.results == serial.results
        # Either real worker processes ran, or the environment forced the
        # (result-identical) serial fallback and said why.
        assert parallel.parallel or parallel.fallback_reason

    def test_parallel_results_preserve_point_order(self):
        points = sweep_points("exp", counting_point, "value",
                              [7, 3, 5, 1])
        outcome = run_sweep(points, jobs=4)
        assert [p["value"] for p in outcome] == [7, 3, 5, 1]


# ---------------------------------------------------------------------------
# Fork-server worker pool
# ---------------------------------------------------------------------------

def _pool_or_skip():
    pool = WorkerPool()
    try:
        pool.ensure(1)
    except (OSError, PermissionError, RuntimeError, ImportError) as exc:
        pool.shutdown()
        pytest.skip(f"worker processes unavailable: {exc}")
    return pool


class TestWorkerPool:
    def test_workers_persist_across_runs(self):
        """The fork-server property: a second sweep reuses the same
        worker processes."""
        pool = _pool_or_skip()
        try:
            first = pool.run(sweep_points("exp", pid_point, "value",
                                          [1, 2, 3]), jobs=2)
            second = pool.run(sweep_points("exp", pid_point, "value",
                                           [4, 5, 6]), jobs=2)
            first_pids = {payload["pid"] for payload in first}
            second_pids = {payload["pid"] for payload in second}
            assert second_pids <= first_pids
            assert len(pool) == 2
        finally:
            pool.shutdown()

    def test_run_returns_payloads_in_point_order(self):
        pool = _pool_or_skip()
        try:
            payloads = pool.run(sweep_points("exp", counting_point, "value",
                                             [9, 10]), jobs=2)
            assert payloads == [{"value": 9, "double": 18},
                                {"value": 10, "double": 20}]
        finally:
            pool.shutdown()

    def test_pool_stays_usable_after_point_failure(self):
        pool = _pool_or_skip()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run([SweepPoint("exp", failing_point),
                          SweepPoint("exp", counting_point,
                                     params={"value": 1})], jobs=2)
            payloads = pool.run(sweep_points("exp", counting_point, "value",
                                             [2]), jobs=2)
            assert payloads == [{"value": 2, "double": 4}]
        finally:
            pool.shutdown()

    def test_shutdown_pool_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()

# ---------------------------------------------------------------------------
# Commit-as-you-go: completed results survive a failing sibling point
# ---------------------------------------------------------------------------

def logged_point(value, log):
    """Appends its value to ``log`` — counts executions across processes."""
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    return {"value": value}


def logged_fail_on_two(value, log):
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    if value == 2:
        raise RuntimeError("point two failed")
    return {"value": value}


def file_per_run_point(value, runs):
    """Creates one new file under ``runs`` per execution; value 2 then
    raises ``OSError``."""
    import os
    import tempfile

    handle, _path = tempfile.mkstemp(prefix=f"{value}-", dir=runs)
    os.close(handle)
    if value == 2:
        raise OSError("point 2 failed")
    return {"value": value}


class FullDiskCache(ResultCache):
    """A result cache whose every write fails as on a full disk."""

    def put(self, experiment, params, payload):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _log_counts(log):
    text = Path(log).read_text() if Path(log).exists() else ""
    counts = {}
    for line in text.splitlines():
        counts[line] = counts.get(line, 0) + 1
    return counts


class TestCommitOnFailure:
    """A failing point must not discard its siblings' finished work: every
    completed payload is committed to the result cache before the sweep
    re-raises, so a retry never redoes completed points."""

    def test_serial_failure_commits_completed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="v1")
        log = str(tmp_path / "runs.log")
        points = [SweepPoint("exp", logged_fail_on_two,
                             {"value": v, "log": log}) for v in (1, 2)]
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=1, cache=cache)
        assert cache.get("exp", {"value": 1, "log": log}) == {"value": 1}
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=1, cache=cache)
        # The completed point ran exactly once across both attempts.
        assert _log_counts(log)["1"] == 1

    def test_parallel_failure_commits_completed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="v1")
        log = str(tmp_path / "runs.log")
        points = [SweepPoint("exp", logged_fail_on_two,
                             {"value": v, "log": log}) for v in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=2, cache=cache)
        # Whatever completed before the failure propagated is cached ...
        committed = [v for v in (1, 3) if not ResultCache.is_missing(
            cache.get("exp", {"value": v, "log": log}))]
        assert committed, "no completed sibling was committed"
        with pytest.raises(RuntimeError, match="point two failed"):
            run_sweep(points, jobs=2, cache=cache)
        counts = _log_counts(log)
        # ... and never re-executed on the retry.
        for value in committed:
            assert counts[str(value)] == 1

    def test_point_raising_oserror_runs_once_on_the_pool(self, tmp_path):
        """A point's own OSError is the point failing, not the pool, and so
        is the result cache failing to store a finished point: either
        propagates without a serial re-run (one file per execution)."""
        full_disk = FullDiskCache(str(tmp_path / "cache"), version="v1")
        # Value 2 raises in the point; values 1 and 3 finish and then
        # fail to commit.
        for values, cache, match in (((1, 2), None, "point 2 failed"),
                                     ((1, 3), full_disk, "No space left")):
            runs = tmp_path / f"runs-{values[-1]}"
            runs.mkdir()
            points = [SweepPoint("exp", file_per_run_point,
                                 {"value": v, "runs": str(runs)})
                      for v in values]
            with pytest.raises(OSError, match=match):
                run_sweep(points, jobs=2, cache=cache)
            for value in values:
                assert len(list(runs.glob(f"{value}-*"))) == 1, (values,
                                                                  value)

    def test_pool_run_on_result_fires_before_raise(self):
        pool = _pool_or_skip()
        seen = []
        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run([SweepPoint("exp", counting_point,
                                     params={"value": 7}),
                          SweepPoint("exp", failing_point)], jobs=2,
                         on_result=lambda i, payload:
                             seen.append((i, payload)))
            assert (0, {"value": 7, "double": 14}) in seen
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Pool shrink
# ---------------------------------------------------------------------------

class TestPoolShrink:
    def test_shrink_retires_idle_workers(self):
        pool = _pool_or_skip()
        try:
            pool.ensure(3)
            assert len(pool) == 3
            assert pool.shrink(1) == 2
            assert len(pool) == 1
            # The survivor still works.
            payloads = pool.run([SweepPoint("exp", counting_point,
                                            params={"value": 5})], jobs=1)
            assert payloads == [{"value": 5, "double": 10}]
        finally:
            pool.shutdown()

    def test_run_trims_pool_to_requested_jobs(self):
        """`ensure` used to only grow; a narrow sweep after a wide one now
        releases the extra workers instead of pinning the high-water mark."""
        pool = _pool_or_skip()
        try:
            pool.ensure(3)
            pool.run([SweepPoint("exp", counting_point,
                                 params={"value": 1})], jobs=1)
            assert len(pool) == 1
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Monotonic LRU (clock-step immunity)
# ---------------------------------------------------------------------------

class TestResultCacheMonotonicLRU:
    def test_eviction_ignores_wall_clock(self, tmp_path):
        """A clock step (NTP, VM resume) must not reorder eviction: the
        entry touched most recently by *operation order* survives even
        when a stale entry's mtime claims it is from the far future."""
        cache = ResultCache(tmp_path, version="v1", max_entries=None)
        cache.put("exp", {"a": 1}, {"r": 1})
        cache.put("exp", {"a": 2}, {"r": 2})
        assert cache.get("exp", {"a": 1}) == {"r": 1}  # a=1 is now MRU
        # Forge a future mtime on the LRU entry: under mtime recency it
        # would wrongly look freshest.
        import time as _time
        future = _time.time() + 1e6
        os_path = cache.path_for("exp", {"a": 2})
        import os as _os
        _os.utime(os_path, (future, future))
        bounded = ResultCache(tmp_path, version="v1", max_entries=2)
        bounded.put("exp", {"a": 3}, {"r": 3})
        assert bounded.get("exp", {"a": 1}) == {"r": 1}
        assert ResultCache.is_missing(bounded.get("exp", {"a": 2}))

    def test_index_sidecar_is_not_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"r": 1})
        assert cache.entry_count() == 1
        assert (Path(tmp_path) / ResultCache.INDEX_NAME).exists()

    def test_corrupt_index_degrades_gracefully(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1", max_entries=2)
        cache.put("exp", {"a": 1}, {"r": 1})
        (Path(tmp_path) / ResultCache.INDEX_NAME).write_text("not json")
        assert cache.get("exp", {"a": 1}) == {"r": 1}
        for i in range(2, 5):
            cache.put("exp", {"a": i}, {"r": i})
        assert cache.entry_count() <= 2

    def test_clear_removes_index(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put("exp", {"a": 1}, {"r": 1})
        cache.clear()
        assert not (Path(tmp_path) / ResultCache.INDEX_NAME).exists()
        assert cache.entry_count() == 0
