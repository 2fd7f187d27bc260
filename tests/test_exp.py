"""Tests for the parallel sweep-execution subsystem (:mod:`repro.exp`)."""

import json
import os

import pytest

from repro.exp import (
    SweepPoint,
    default_jobs,
    point_slug,
    run_sweep,
    shutdown_pool,
    sweep_points,
    trace_path,
)
from repro.exp import figures
from repro.exp import runner as runner_mod
from repro.exp.figures import fig8_point, fig8_quality_point, fig8_sweep

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


# ---------------------------------------------------------------------------
# Where run_sweep executes: the worker pool or this process
# ---------------------------------------------------------------------------

class TestBackendResolution:
    def test_auto_picks_pool_only_when_it_helps(self, monkeypatch):
        """The pool runs a sweep only when ``jobs > 1`` and more than one
        point is given."""
        calls = []

        def fake_pool(points, jobs, on_result):
            calls.append((len(points), jobs))
            for index, point in enumerate(points):
                on_result(index, point.run())

        monkeypatch.setattr(runner_mod, "_run_parallel", fake_pool)
        points = [SweepPoint("exp", counting_point, {"value": v})
                  for v in (1, 2, 3, 4)]
        assert run_sweep(points, jobs=4).parallel
        assert calls == [(4, 4)]
        assert not run_sweep(points[:1], jobs=4).parallel
        assert not run_sweep(points, jobs=1).parallel
        assert calls == [(4, 4)]


class TestMetricsDir:
    """Per-point trace files: their names, their stamps, and where
    relative directories land."""

    def test_point_slug_is_filesystem_safe(self):
        point = SweepPoint("exp", counting_point,
                           params={"value": 1}, label="fig8[llc_mb=8.0]")
        slug = point_slug(point)
        assert "/" not in slug and " " not in slug
        assert trace_path("t", point).endswith(f"{slug}.trace.json")

    def test_metrics_and_trace_carry_provenance(self, tmp_path):
        """The trace carries the point's provenance and wall time, which
        the trace summary hands on."""
        from repro.obs import summarize_chrome_trace

        (point,) = sweep_points("exp", counting_point, "value", [5])
        run_sweep([point], jobs=1, trace_dir=str(tmp_path))
        provenance = {"pid": os.getpid(), "point_slug": point_slug(point)}
        trace_file = trace_path(str(tmp_path), point)
        with open(trace_file) as handle:
            other = json.load(handle)["otherData"]
        assert {key: other[key] for key in provenance} == provenance
        assert 0 <= other["wall_s"] < 60
        assert summarize_chrome_trace(trace_file)["provenance"] == \
            {**provenance, "wall_s": other["wall_s"]}

    def test_relative_dirs_follow_the_working_directory(self, tmp_path,
                                                        monkeypatch):
        """Pool workers keep the working directory they were forked in;
        a relative trace dir, given as an argument or in the environment,
        still resolves against this process's current one."""
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        points = sweep_points("exp", counting_point, "value", [1, 2])
        shutdown_pool()
        monkeypatch.chdir(first)
        run_sweep(points, jobs=2)
        monkeypatch.chdir(second)
        run_sweep(points, jobs=2, trace_dir="m")
        monkeypatch.setenv("REPRO_TRACE_DIR", "t")
        run_sweep(points, jobs=2)
        assert os.environ["REPRO_TRACE_DIR"] == "t"
        for point in points:
            assert (second / trace_path("m", point)).exists()
            assert (second / trace_path("t", point)).exists()
        assert list(first.iterdir()) == []


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


@pytest.mark.parametrize("point", [fig8_point, fig8_quality_point])
def test_no_system_outlives_its_channel(point, monkeypatch):
    """Each channel's System is garbage before the next one builds, so a
    64 MB point holds one LLC at a time."""
    import gc
    import weakref

    built, alive = [], []

    class RecordingSystem(figures.System):
        def __init__(self, *args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(figures, "System", RecordingSystem)
    point(8.0)
    assert len(built) == 8  # seven channels and the Streamline bound
    assert alive == [0] * 8


# ---------------------------------------------------------------------------
# The reused worker pool, seen through run_sweep
# ---------------------------------------------------------------------------

def _await_entries(directory, count):
    """Waits, for at most 30 s, until ``directory`` holds ``count``
    entries."""
    import time

    deadline = time.monotonic() + 30.0
    while len(os.listdir(directory)) < count and \
            time.monotonic() < deadline:
        time.sleep(0.002)


def rendezvous_point(value, gate, parties):
    """Reports its pid once ``parties`` points have entered ``gate``, so
    ``parties`` points at ``jobs=parties`` run on that many workers."""
    open(os.path.join(gate, str(value)), "w").close()
    _await_entries(gate, parties)
    return {"value": value, "pid": os.getpid()}


def sleepy_point(value, delay):
    import time

    time.sleep(delay)
    return {"value": value}


def env_point(value):
    import os

    return {"value": value, "pid": os.getpid(),
            "env": {key: os.environ.get(key)
                    for key in ("REPRO_TEST_KEEP", "REPRO_TEST_ADDED",
                                "REPRO_TEST_GONE")}}


def unpicklable_point(kind, value, runs):
    """Returns, or raises with, a local function, which cannot be pickled
    back from a worker; creates one file under ``runs`` per execution.
    It fails only once both points' files exist: a failure cancels the
    points that have not started, and the sweep under test has two."""
    import tempfile

    handle, _path = tempfile.mkstemp(prefix=f"{value}-", dir=runs)
    os.close(handle)
    _await_entries(runs, 2)
    if kind == "exception":
        raise ValueError(lambda: value)
    return {"value": value, "fn": lambda: value}


def file_per_run_point(value, runs, fails=False):
    """Creates one new file under ``runs`` per execution, then raises
    ``OSError`` if ``fails``."""
    import os
    import tempfile

    handle, _path = tempfile.mkstemp(prefix=f"{value}-", dir=runs)
    os.close(handle)
    if fails:
        raise OSError(f"point {value} failed")
    return {"value": value}


def _pool_or_skip():
    """Run one two-point sweep on the pool; skip when workers cannot
    start here."""
    outcome = run_sweep(sweep_points("exp", pid_point, "value", [1, 2]),
                        jobs=2)
    if not outcome.parallel:
        pytest.skip(f"worker processes unavailable: "
                    f"{outcome.fallback_reason}")


def _sweep_pids(tmp_path, name, parties, jobs=None):
    """The worker pids of one sweep of ``parties`` rendezvous points."""
    gate = tmp_path / name
    gate.mkdir()
    points = [SweepPoint("exp", rendezvous_point,
                         {"value": v, "gate": str(gate), "parties": parties})
              for v in range(parties)]
    outcome = run_sweep(points, jobs=jobs or parties)
    assert outcome.parallel, outcome.fallback_reason
    pids = {payload["pid"] for payload in outcome}
    assert len(pids) == parties and os.getpid() not in pids
    return pids


class TestWorkerPool:
    def test_workers_persist_across_runs(self, tmp_path):
        """A second sweep reuses the first sweep's worker processes, and
        so does a wider ``jobs`` while the pool holds at least as many
        workers as the sweep has points."""
        _pool_or_skip()
        first = _sweep_pids(tmp_path, "first", 2)
        assert _sweep_pids(tmp_path, "second", 2) == first
        assert _sweep_pids(tmp_path, "wider", 2, jobs=4) == first

    def test_run_returns_payloads_in_point_order(self):
        """Payloads arrive in completion order but land in point order."""
        _pool_or_skip()
        points = [SweepPoint("exp", sleepy_point,
                             {"value": v, "delay": 0.2 if v == 0 else 0.0})
                  for v in range(4)]
        outcome = run_sweep(points, jobs=2)
        assert outcome.parallel
        assert outcome.results == [{"value": v} for v in range(4)]

    def test_tasks_mirror_the_current_repro_environment(self, monkeypatch):
        """``REPRO_*`` variables set, changed or deleted after the workers
        forked are what the next sweep's points see."""
        shutdown_pool()
        monkeypatch.setenv("REPRO_TEST_KEEP", "old")
        monkeypatch.setenv("REPRO_TEST_GONE", "old")
        _pool_or_skip()
        monkeypatch.setenv("REPRO_TEST_KEEP", "new")
        monkeypatch.setenv("REPRO_TEST_ADDED", "new")
        monkeypatch.delenv("REPRO_TEST_GONE")
        outcome = run_sweep(sweep_points("exp", env_point, "value",
                                         [1, 2, 3, 4]), jobs=2)
        assert outcome.parallel
        for payload in outcome:
            assert payload["pid"] != os.getpid()
            assert payload["env"] == {"REPRO_TEST_KEEP": "new",
                                      "REPRO_TEST_ADDED": "new",
                                      "REPRO_TEST_GONE": None}

    def test_pool_stays_usable_after_point_failure(self):
        _pool_or_skip()
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep([SweepPoint("exp", failing_point),
                       SweepPoint("exp", counting_point,
                                  params={"value": 1})], jobs=2)
        outcome = run_sweep(sweep_points("exp", counting_point, "value",
                                         [2, 3]), jobs=2)
        assert outcome.parallel
        assert outcome.results == [{"value": 2, "double": 4},
                                   {"value": 3, "double": 6}]

    def test_unpicklable_payload_or_exception_fails_its_point(self,
                                                              tmp_path):
        """What cannot travel back from a worker fails as that point's
        failure: no serial re-run (one file per execution), and the pool
        stays usable."""
        _pool_or_skip()
        for kind in ("payload", "exception"):
            runs = tmp_path / kind
            runs.mkdir()
            points = [SweepPoint("exp", unpicklable_point,
                                 {"kind": kind, "value": v,
                                  "runs": str(runs)}) for v in (1, 2)]
            with pytest.raises(Exception):
                run_sweep(points, jobs=2)
            for value in (1, 2):
                assert len(list(runs.glob(f"{value}-*"))) == 1, (kind,
                                                                  value)
        assert run_sweep(sweep_points("exp", counting_point, "value",
                                      [4, 5]), jobs=2).parallel

    def test_point_raising_oserror_runs_once_on_the_pool(self, tmp_path):
        """A point's own OSError is the point failing, not the pool: it
        propagates without a serial re-run (one file per execution)."""
        _pool_or_skip()
        points = [SweepPoint("exp", file_per_run_point,
                             {"value": v, "runs": str(tmp_path),
                              "fails": v == 2}) for v in (1, 2)]
        with pytest.raises(OSError, match="point 2 failed"):
            run_sweep(points, jobs=2)
        for value in (1, 2):
            assert len(list(tmp_path.glob(f"{value}-*"))) == 1, value

    def test_shutdown_pool_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()


class TestPoolShrink:
    def test_run_trims_pool_to_requested_jobs(self, tmp_path):
        """A narrower ``jobs`` replaces the pool with one of
        ``min(jobs, points)`` workers, which later sweeps reuse."""
        _pool_or_skip()
        wide = _sweep_pids(tmp_path, "wide", 3)
        narrow = _sweep_pids(tmp_path, "narrow", 2)
        assert not narrow & wide
        assert _sweep_pids(tmp_path, "again", 2) == narrow

    def test_shrink_retires_idle_workers(self, tmp_path):
        """The wide pool's workers exit once a narrower sweep replaces
        it: one wide sweep does not pin processes at the high-water
        mark."""
        _pool_or_skip()
        wide = _sweep_pids(tmp_path, "wide", 3)
        _sweep_pids(tmp_path, "narrow", 2)
        for pid in wide:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def crash_once_point(value, runs, sentinel, parent):
    """Creates one file under ``runs`` per execution.  The first execution
    of value 3 outside the ``parent`` process kills its worker."""
    import os
    import tempfile

    handle, _path = tempfile.mkstemp(prefix=f"{value}-", dir=runs)
    os.close(handle)
    if value == 3 and os.getpid() != parent:
        try:
            os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return {"value": value}
        os._exit(1)
    return {"value": value}


def test_parallel_sweep_runs_each_point_once(tmp_path):
    """A sweep on the pool runs every point exactly once (one file per
    execution) and returns the payloads in point order."""
    _pool_or_skip()
    values = [5, 0, 3, 1, 4, 2]
    points = sweep_points("exp", file_per_run_point, "value", values,
                          runs=str(tmp_path))
    outcome = run_sweep(points, jobs=2)
    assert outcome.parallel, outcome.fallback_reason
    assert outcome.results == [{"value": v} for v in values]
    for value in values:
        assert len(list(tmp_path.glob(f"{value}-*"))) == 1, value


class TestPoolFallback:
    """The one retry: points a broken or unstartable pool did not finish
    run once more in this process."""

    def test_worker_death_falls_back_to_serial(self, tmp_path):
        _pool_or_skip()
        runs = tmp_path / "runs"
        runs.mkdir()
        points = [SweepPoint("exp", crash_once_point,
                             {"value": v, "runs": str(runs),
                              "sentinel": str(tmp_path / "died"),
                              "parent": os.getpid()}) for v in range(6)]
        outcome = run_sweep(points, jobs=2)
        assert outcome.fallback_reason and not outcome.parallel
        assert (tmp_path / "died").exists()
        assert outcome.results == [{"value": v} for v in range(6)]
        for value in range(6):
            assert 1 <= len(list(runs.glob(f"{value}-*"))) <= 2, value
        assert run_sweep(sweep_points("exp", counting_point, "value",
                                      [1, 2]), jobs=2).parallel

    def test_workers_that_cannot_start_fall_back_to_serial(self,
                                                           monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise OSError("no semaphores here")

        shutdown_pool()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse)
        points = sweep_points("exp", counting_point, "value", [1, 2, 3])
        outcome = run_sweep(points, jobs=2)
        assert not outcome.parallel
        assert "no semaphores here" in outcome.fallback_reason
        assert outcome.results == run_sweep(points, jobs=1).results


def test_import_loads_no_process_machinery():
    """Only a parallel sweep needs worker processes, so importing the
    sweep engine loads neither multiprocessing nor concurrent.futures."""
    import subprocess
    import sys

    import repro

    code = ("import sys, repro.exp, repro.exp.figures; "
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"
