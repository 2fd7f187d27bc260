"""Tests for the structured event-trace layer (``repro.obs``):
recording, per-requestor metrics, Chrome-trace export, process-global
installation, sweep-runner fan-out, and the ``repro trace`` CLI."""

import json
import os

import pytest

from repro import obs
from repro.attacks import ImpactPnmChannel
from repro.cli import main
from repro.config import SystemConfig
from repro.dram import (DRAMGeometry, MemoryController,
                        MemoryControllerConfig)
from repro.exp import run_sweep, sweep_points
from repro.obs import MultiObserver, TraceEvent, Tracer
from repro.sim import Scheduler, Semaphore
from repro.system import System

GEOM = DRAMGeometry(ranks=1, banks_per_rank=4, rows_per_bank=256,
                    row_bytes=2048)


def make_controller(**kwargs):
    defaults = dict(geometry=GEOM)
    defaults.update(kwargs)
    return MemoryController(MemoryControllerConfig(**defaults))


def dram_point(rows):
    """Module-level (picklable) sweep point that touches DRAM, so traced
    sweep runs produce non-empty per-point traces."""
    mc = MemoryController(MemoryControllerConfig(geometry=GEOM))
    now = 0
    for row in range(rows):
        now = mc.access(mc.address_of(bank=0, row=row), now).finish
    return {"rows": rows, "finish": now}


# ---------------------------------------------------------------------------
# Event capture
# ---------------------------------------------------------------------------

class TestTracerCapture:
    def test_dram_accesses_recorded_with_timing(self):
        mc = make_controller()
        tracer = Tracer()
        mc.set_observer(tracer)
        addr = mc.address_of(bank=1, row=7)
        first = mc.access(addr, 0, requestor="attacker")
        mc.access(addr, first.finish, requestor="attacker")  # row hit
        assert tracer.counts() == {"RD": 2}
        empty, hit = tracer.events
        assert empty.cat == "dram" and empty.tid == "bank 1"
        assert empty.args["kind"] == "empty"
        assert empty.args["requestor"] == "attacker"
        assert hit.args["kind"] == "hit"
        assert hit.dur == mc.config.timings.hit_cycles
        assert empty.ts + empty.dur == first.finish

    def test_activate_rowclone_and_refresh_recorded(self):
        mc = make_controller(refresh_enabled=True)
        tracer = Tracer()
        mc.set_observer(tracer)
        mc.activate(2, 9, 0, requestor="sender")
        mc.rowclone(mc.address_of(bank=0, row=1),
                    mc.address_of(bank=0, row=2), mask=0b11, issued=200)
        # Issue into bank 0's refresh window (rank 0 staggers at phase 0).
        mc.access(mc.address_of(bank=0, row=1), 5_000_000)
        counts = tracer.counts()
        assert counts["ACT"] == 1
        assert counts["RowClone"] == 2
        assert counts.get("REF", 0) >= 1

    def test_queue_delay_recorded(self):
        mc = make_controller()
        tracer = Tracer()
        mc.set_observer(tracer)
        addr = mc.address_of(bank=0, row=3)
        mc.access(addr, 0)
        mc.access(addr, 0)  # queues behind the first
        assert tracer.events[1].args["queue_delay"] > 0

    def test_multi_observer_fans_out(self):
        mc = make_controller()
        first, second = Tracer(), Tracer()
        mc.set_observer(MultiObserver([first, second]))
        mc.access(mc.address_of(bank=0, row=1), 0)
        assert len(first.events) == len(second.events) == 1

    def test_clear(self):
        tracer = Tracer()
        tracer.events.append(TraceEvent("RD", "dram", 0, 5, "bank 0"))
        tracer.clear()
        assert len(tracer) == 0

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            Tracer(cpu_ghz=0)


def test_system_events_reach_tracer():
    tracer = Tracer()
    system = System(observer=tracer)
    addr = system.address_of(0, 5)
    result = system.hierarchy.access(0, addr, 0, requestor="victim")
    system.hierarchy.clflush(0, addr, result.finish, requestor="victim")
    system.pei.execute(addr, 10_000, requestor="pei")
    counts = tracer.counts()
    assert counts.get("miss", 0) >= 1       # cold access missed the caches
    assert counts.get("clflush", 0) == 1
    assert counts.get("PEI", 0) == 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestPerRequestor:
    def test_aggregates_by_requestor(self):
        mc = make_controller()
        tracer = Tracer()
        mc.set_observer(tracer)
        a1 = mc.access(mc.address_of(bank=0, row=1), 0, requestor="a")
        mc.access(mc.address_of(bank=0, row=1), a1.finish, requestor="a")
        mc.access(mc.address_of(bank=1, row=2), 0, requestor="b")
        metrics = tracer.per_requestor()
        assert metrics["a"]["operations"] == 2
        assert metrics["a"]["empties"] == 1
        assert metrics["a"]["hits"] == 1
        assert metrics["b"]["operations"] == 1
        t = mc.config.timings
        assert metrics["a"]["busy_cycles"] == t.empty_cycles + t.hit_cycles

    def test_non_dram_events_excluded(self):
        tracer = Tracer()
        tracer.on_cache_miss(0, 0x100, 0, 50, "cpu")
        assert tracer.per_requestor() == {}


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------

class TestChromeExport:
    def _traced(self):
        mc = make_controller()
        tracer = Tracer()
        mc.set_observer(tracer)
        addr = mc.address_of(bank=0, row=1)
        mc.access(addr, 0)
        tracer.on_thread_resume("receiver", 500, 1)  # an instant event
        return tracer

    def test_spans_and_instants(self):
        doc = self._traced().to_chrome()
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert spans and instants
        for span in spans:
            assert span["dur"] > 0
        for instant in instants:
            assert instant["s"] == "t"
            assert "dur" not in instant
        for event in events:
            assert {"name", "cat", "pid", "tid", "ts"} <= set(event)

    def test_categories_map_to_pids(self):
        doc = self._traced().to_chrome()
        pids = {e["cat"]: e["pid"] for e in doc["traceEvents"]}
        assert pids["dram"] == 1 and pids["sched"] == 4

    def test_timestamps_scale_to_microseconds(self):
        tracer = Tracer(cpu_ghz=2.0)
        tracer.events.append(TraceEvent("RD", "dram", 2000, 1000, "bank 0"))
        record = tracer.to_chrome()["traceEvents"][0]
        assert record["ts"] == pytest.approx(1.0)   # 2000 cyc @2GHz = 1 us
        assert record["dur"] == pytest.approx(0.5)

    def test_write_chrome_round_trips(self, tmp_path):
        path = tmp_path / "out.trace.json"
        written = self._traced().write_chrome(str(path))
        assert written == str(path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]
        assert doc["otherData"]["event_counts"]["RD"] == 1


# ---------------------------------------------------------------------------
# Process-global installation
# ---------------------------------------------------------------------------

class TestGlobalInstall:
    def test_install_uninstall(self):
        tracer = Tracer()
        assert obs.current_observer() is None
        obs.install(tracer)
        try:
            assert obs.current_observer() is tracer
        finally:
            obs.uninstall()
        assert obs.current_observer() is None

    def test_components_pick_up_global_observer(self):
        tracer = Tracer()
        obs.install(tracer)
        try:
            mc = make_controller()
            mc.access(mc.address_of(bank=0, row=1), 0)
        finally:
            obs.uninstall()
        assert tracer.counts() == {"RD": 1}

    def test_scheduler_emits_block_and_resume(self):
        tracer = Tracer()
        obs.install(tracer)
        try:
            sched = Scheduler()
            sem = Semaphore()

            def waiter(ctx):
                yield sem.acquire()

            def poster(ctx):
                ctx.advance(50)
                yield None
                yield sem.release()

            sched.spawn(waiter, name="waiter")
            sched.spawn(poster, name="poster")
            sched.run()
        finally:
            obs.uninstall()
        sched_events = [(e.name, e.tid) for e in tracer.events
                        if e.cat == "sched"]
        assert ("block", "waiter") in sched_events
        assert ("resume", "waiter") in sched_events

    def test_tracing_leaves_a_channels_output_unchanged(self):
        baseline = ImpactPnmChannel(
            System(SystemConfig.paper_default())).transmit_random(32, seed=5)
        tracer = obs.install(Tracer())
        try:
            traced = ImpactPnmChannel(
                System(SystemConfig.paper_default())).transmit_random(
                    32, seed=5)
        finally:
            obs.uninstall()
        assert traced.received == baseline.received
        assert traced.cycles == baseline.cycles
        assert traced.probe_latencies == baseline.probe_latencies
        assert len(tracer) > 0


# ---------------------------------------------------------------------------
# Sweep-runner fan-out
# ---------------------------------------------------------------------------

class TestRunnerTracing:
    def test_trace_dir_writes_one_file_per_point(self, tmp_path):
        points = sweep_points("trace-exp", dram_point, "rows", [3, 5])
        outcome = run_sweep(points, jobs=1, trace_dir=str(tmp_path))
        assert [p["rows"] for p in outcome] == [3, 5]
        files = sorted(tmp_path.glob("*.trace.json"))
        assert len(files) == 2
        for path in files:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            # Each point's DRAM traffic landed in its own trace.
            assert doc["otherData"]["event_counts"]["RD"] >= 3
        # The env handshake and the global observer are both restored.
        assert os.environ.get("REPRO_TRACE_DIR") is None
        assert obs.current_observer() is None

    def test_parallel_results_identical_to_serial(self, tmp_path):
        points = sweep_points("trace-exp", dram_point, "rows", [2, 4, 6])
        serial = run_sweep(points, jobs=1).results
        traced = run_sweep(points, jobs=2,
                           trace_dir=str(tmp_path / "traces")).results
        assert traced == serial
        assert len(list((tmp_path / "traces").glob("*.trace.json"))) == 3

    def test_no_trace_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        points = sweep_points("trace-exp", dram_point, "rows", [2])
        run_sweep(points, jobs=1)
        assert list(tmp_path.glob("*.trace.json")) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_trace_writes_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "fig7.trace.json"
    rc = main(["trace", "fig7", "--bits", "16", "--out", str(out),
               "--sanitize"])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    kinds = {e["ph"] for e in doc["traceEvents"]}
    assert kinds <= {"X", "i"}
    text = capsys.readouterr().out
    assert "0 violations" in text
    assert str(out) in text
    # The CLI restored the global-observer slot on the way out.
    assert obs.current_observer() is None
