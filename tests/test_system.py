"""Integration tests for the assembled System and SystemConfig."""

import pytest

from repro import System, SystemConfig
from repro.dram import AccessKind, RowPolicy
from repro.sim import Scheduler


def small_config(**kwargs):
    from dataclasses import replace
    from repro.cache import HierarchyConfig
    from repro.dram import DRAMGeometry
    cfg = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))
    return replace(cfg, **kwargs) if kwargs else cfg


def run_thread(system, body):
    sched = Scheduler()
    thread = sched.spawn(body, system)
    sched.run()
    return thread.result


def test_paper_default_matches_table2():
    cfg = SystemConfig.paper_default()
    assert cfg.cpu_ghz == 2.6
    assert cfg.hierarchy.num_cores == 4
    assert cfg.geometry.banks_per_rank == 16
    assert cfg.geometry.ranks == 4
    assert cfg.hierarchy.l1_size_kb == 32
    assert cfg.hierarchy.l2_size_kb == 1024
    assert cfg.row_policy is RowPolicy.OPEN
    rows = cfg.describe()
    assert any("DDR4-2400" in r["configuration"] for r in rows)
    assert len(rows) == 6
    # The core count comes from the hierarchy, the one place that sets it.
    from repro.cache import HierarchyConfig
    two_core = SystemConfig(
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0))
    described = {r["component"]: r["configuration"]
                 for r in two_core.describe()}
    assert described["CPU"].startswith("2-core,")
    assert described["L3 Cache"].startswith("1 MB/core,")


def test_with_llc_sweep_updates_latency():
    base = SystemConfig.paper_default()
    big = base.with_llc(64.0)
    assert big.hierarchy.llc_size_mb == 64.0
    assert big.hierarchy.llc_latency_cycles > base.hierarchy.llc_latency_cycles


def test_with_banks_sweep():
    cfg = SystemConfig.paper_default().with_banks(1024)
    assert cfg.geometry.num_banks == 1024


def test_with_defense_presets():
    base = SystemConfig.paper_default()
    assert base.with_defense("crp").row_policy is RowPolicy.CLOSED
    assert base.with_defense("ctd").constant_time
    assert base.with_defense("open").row_policy is RowPolicy.OPEN
    with pytest.raises(ValueError):
        base.with_defense("magic")


def test_system_load_advances_context():
    system = System(small_config())

    def body(ctx, sys_):
        start = ctx.now
        result = sys_.load(ctx, core=0, addr=0x10000)
        yield None
        return ctx.now - start, result.hit_level

    elapsed, hit_level = run_thread(system, body)
    assert hit_level == 0
    assert elapsed > 0


def test_system_pei_op_and_measurement():
    system = System(small_config())
    addr = system.address_of(bank=1, row=7)

    def body(ctx, sys_):
        timer = sys_.new_timer()
        sys_.pei_op(ctx, addr)           # open the row
        timer.start(ctx)
        result = sys_.pei_op(ctx, addr)  # hit
        latency = timer.stop(ctx)
        yield None
        return latency, result.kind

    latency, kind = run_thread(system, body)
    assert kind is AccessKind.HIT
    assert latency < 150


def test_system_rowclone_roundtrip():
    system = System(small_config())
    src = system.address_of(bank=0, row=10)
    dst = system.address_of(bank=0, row=20)

    def body(ctx, sys_):
        result = sys_.rowclone(ctx, src, dst, mask=0b11)
        yield None
        return result

    result = run_thread(system, body)
    assert result.banks == [0, 1]


def test_system_dma_slower_than_pei():
    """§5.3: the DMA path pays OS overheads PEI does not."""
    system = System(small_config())
    addr = system.address_of(bank=2, row=3)

    def body(ctx, sys_):
        t0 = ctx.now
        sys_.pei_op(ctx, addr)
        pei_cost = ctx.now - t0
        t1 = ctx.now
        sys_.dma_access(ctx, addr)
        dma_cost = ctx.now - t1
        yield None
        return pei_cost, dma_cost

    pei_cost, dma_cost = run_thread(system, body)
    assert dma_cost > pei_cost


def test_system_clflush_then_reload_misses():
    system = System(small_config())

    def body(ctx, sys_):
        sys_.load(ctx, core=0, addr=0x20000)
        sys_.clflush(ctx, core=0, addr=0x20000)
        result = sys_.load(ctx, core=0, addr=0x20000)
        yield None
        return result.hit_level

    assert run_thread(system, body) == 0


def test_background_noise_injects_activations():
    system = System(small_config().with_noise(rate_per_kilocycle=5.0))
    fired = system.noise.run(0, 100_000)
    assert fired > 0
    banks = system.controller.device.banks
    assert sum(bank.stats.activations for bank in banks) >= fired


def test_background_noise_disabled_by_default():
    system = System(small_config())
    assert system.noise.run(0, 1_000_000) == 0


def test_offchip_predictor_requires_enabling():
    system = System(small_config())

    def body(ctx, sys_):
        with pytest.raises(RuntimeError):
            sys_.pei_op_predicted(ctx, 0x1000)
        yield None

    run_thread(system, body)
    system.enable_offchip_predictor()

    def body2(ctx, sys_):
        result = sys_.pei_op_predicted(ctx, sys_.address_of(bank=0, row=0))
        yield None
        return result

    assert run_thread(system, body2) is not None
