"""Unit tests for the memory controller: policies, defenses, RowClone."""

import dataclasses
import random

import pytest

from repro.dram import (
    AccessKind,
    DRAMGeometry,
    DRAMTimings,
    MemoryController,
    MemoryControllerConfig,
    PartitionViolationError,
    RowPolicy,
)
from repro.system import SystemConfig

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=1024)


def make_controller(**kwargs):
    defaults = dict(geometry=GEOM)
    defaults.update(kwargs)
    return MemoryController(MemoryControllerConfig(**defaults))


def test_access_decodes_and_opens_row():
    mc = make_controller()
    addr = mc.address_of(bank=3, row=17)
    result = mc.access(addr, issued=0)
    assert result.bank == 3
    assert result.row == 17
    assert mc.open_rows()[3] == 17


def test_queue_cycles_added():
    mc = make_controller(queue_cycles=10)
    t = mc.config.timings
    result = mc.access(mc.address_of(0, 0), issued=0)
    assert result.latency == 10 + t.empty_cycles


def test_open_row_policy_preserves_hits():
    mc = make_controller()
    addr = mc.address_of(bank=0, row=5)
    mc.access(addr, issued=0)
    result = mc.access(addr, issued=1000)
    assert result.kind is AccessKind.HIT


def test_closed_row_policy_eliminates_hits():
    """CRP defense (§6): every access is a row miss."""
    mc = make_controller(row_policy=RowPolicy.CLOSED)
    addr = mc.address_of(bank=0, row=5)
    for issued in (0, 1000, 2000):
        result = mc.access(addr, issued=issued)
        assert result.kind is AccessKind.EMPTY


def test_closed_row_policy_never_conflicts():
    mc = make_controller(row_policy=RowPolicy.CLOSED)
    a = mc.address_of(bank=0, row=5)
    b = mc.address_of(bank=0, row=9)
    mc.access(a, issued=0)
    result = mc.access(b, issued=1000)
    assert result.kind is AccessKind.EMPTY


def test_constant_time_flattens_latencies():
    """CTD defense (§6): hit and conflict return after identical latency."""
    mc = make_controller(constant_time=True)
    a = mc.address_of(bank=0, row=5)
    b = mc.address_of(bank=0, row=9)
    first = mc.access(a, issued=0)
    hit = mc.access(a, issued=10_000)
    conflict = mc.access(b, issued=20_000)
    assert first.latency == hit.latency == conflict.latency


def test_constant_time_matches_worst_case():
    mc = make_controller(constant_time=True, queue_cycles=4)
    t = mc.config.timings
    result = mc.access(mc.address_of(0, 0), issued=0)
    assert result.latency == 4 + t.conflict_cycles


def test_partitioning_blocks_foreign_requestor():
    """MPR defense (§6): bank ownership is exclusive."""
    mc = make_controller()
    mc.partition_banks("victim", [0, 1, 2])
    addr = mc.address_of(bank=1, row=0)
    mc.access(addr, issued=0, requestor="victim")
    with pytest.raises(PartitionViolationError):
        mc.access(addr, issued=100, requestor="attacker")


def test_partitioning_allows_unowned_banks():
    mc = make_controller()
    mc.partition_banks("victim", [0])
    addr = mc.address_of(bank=5, row=0)
    mc.access(addr, issued=0, requestor="attacker")  # no error


def test_partition_conflicting_assignment_rejected():
    mc = make_controller()
    mc.partition_banks("a", [0])
    with pytest.raises(ValueError):
        mc.partition_banks("b", [0])


def test_activate_is_cheaper_than_access():
    mc = make_controller()
    act = mc.activate(bank_index=0, row=5, issued=0)
    mc2 = make_controller()
    acc = mc2.access(mc2.address_of(0, 5), issued=0)
    assert act.latency < acc.latency


@pytest.mark.parametrize("bank,row,message", [
    (-1, 5, "bank -1"), (16, 5, "bank 16"), (3, 10**9, "row 1000000000"),
])
def test_activate_rejects_coordinates_outside_the_geometry(bank, row,
                                                           message):
    """``activate`` checks its bank and row as ``address_of`` does: a
    negative bank would open a row in the last bank, a row past the
    geometry would open, and a bank past it raised a bare IndexError."""
    mc = make_controller()
    with pytest.raises(ValueError, match=message):
        mc.activate(bank, row, 100)
    with pytest.raises(ValueError, match=message):
        mc.address_of(bank, row)
    assert mc.open_rows() == [None] * GEOM.num_banks
    assert mc.requestor_stats == {}


def test_rowclone_mask_selects_banks():
    mc = make_controller()
    src = mc.address_of(bank=0, row=10)
    dst = mc.address_of(bank=0, row=20)
    mask = 0b1010
    results = mc.rowclone(src, dst, mask, issued=0)
    assert [r.bank for r in results] == [1, 3]
    assert mc.open_rows()[1] == 20
    assert mc.open_rows()[0] is None


def test_rowclone_empty_mask_is_noop():
    mc = make_controller()
    src = mc.address_of(bank=0, row=10)
    assert mc.rowclone(src, src, 0, issued=0) == []


def test_rowclone_banks_run_in_parallel():
    mc = make_controller()
    src = mc.address_of(bank=0, row=10)
    dst = mc.address_of(bank=0, row=20)
    all_banks = (1 << GEOM.num_banks) - 1
    results = mc.rowclone(src, dst, all_banks, issued=0)
    finishes = {r.finish for r in results}
    assert len(finishes) == 1  # all banks complete together


def test_rowclone_atomicity_locks_controller():
    """§5.1 threat model: no other DRAM operation until RowClone completes."""
    mc = make_controller()
    src = mc.address_of(bank=0, row=10)
    dst = mc.address_of(bank=0, row=20)
    results = mc.rowclone(src, dst, 0b1, issued=0)
    clone_finish = results[0].finish
    other = mc.access(mc.address_of(bank=7, row=0), issued=5)
    assert other.finish >= clone_finish


def test_rowclone_invalid_mask_rejected():
    mc = make_controller()
    src = mc.address_of(bank=0, row=10)
    with pytest.raises(ValueError):
        mc.rowclone(src, src, -1, issued=0)
    with pytest.raises(ValueError):
        mc.rowclone(src, src, 1 << GEOM.num_banks, issued=0)


def test_requestor_stats_tracked():
    mc = make_controller()
    addr = mc.address_of(bank=0, row=5)
    mc.access(addr, issued=0, requestor="alice")
    mc.access(addr, issued=1000, requestor="alice")
    mc.access(addr, issued=2000, requestor="bob", is_write=True)
    assert mc.requestor_stats["alice"].reads == 2
    assert mc.requestor_stats["alice"].hits == 1
    assert mc.requestor_stats["bob"].writes == 1


def test_refresh_noise_delays_accesses():
    mc = make_controller(refresh_enabled=True)
    t = mc.config.timings
    # An access issued right at the start of bank 0's refresh window waits.
    result = mc.access(mc.address_of(bank=0, row=0), issued=0)
    assert result.latency >= t.rfc_cycles


def test_negative_queue_cycles_rejected():
    with pytest.raises(ValueError):
        MemoryControllerConfig(queue_cycles=-1)


def _controller_state(mc):
    banks = [(b.open_row, b.busy_until, b.row_opened_at, b.last_activation,
              dataclasses.astuple(b.stats)) for b in mc.device.banks]
    stats = {name: dataclasses.astuple(s)
             for name, s in mc.requestor_stats.items()}
    return banks, stats


@pytest.mark.parametrize("mapping", ["row", "line", "xor"])
@pytest.mark.parametrize("row_timeout_ns,refresh",
                         [(0.0, False), (120.0, False), (0.0, True)])
def test_access_run_matches_chained_access_calls(mapping, row_timeout_ns,
                                                 refresh):
    def build():
        return make_controller(mapping=mapping, refresh_enabled=refresh,
                               timings=DRAMTimings(
                                   row_timeout_ns=row_timeout_ns))

    rng = random.Random(8)
    addrs = [rng.randrange(GEOM.capacity_bytes) & ~0x3F for _ in range(600)]
    addrs += [0x40000 + (i % 32) * 64 for i in range(200)]  # same-row run
    run_mc, loop_mc = build(), build()
    finish, latencies = run_mc.access_run(addrs, 1000, requestor="recv",
                                          collect_latencies=True)
    end, no_latencies = run_mc.access_run(addrs[:100], finish,
                                          requestor="send", is_write=True)
    now = 1000
    expected = []
    for addr in addrs:
        result = loop_mc.access(addr, now, requestor="recv")
        expected.append(result.latency)
        now = result.finish
    assert (finish, latencies) == (now, expected)
    for addr in addrs[:100]:
        now = loop_mc.access(addr, now, requestor="send",
                             is_write=True).finish
    assert (end, no_latencies) == (now, None)
    assert _controller_state(run_mc) == _controller_state(loop_mc)


def test_access_run_matches_chained_access_calls_on_paper_geometry():
    # The paper-default controller: full-size geometry and default timings.
    config = SystemConfig.paper_default().controller_config()
    run_mc, loop_mc = MemoryController(config), MemoryController(config)
    rng = random.Random(12)
    cap = run_mc.config.geometry.capacity_bytes
    addrs = [rng.randrange(cap // 16) & ~0x3F for _ in range(800)]
    finish, latencies = run_mc.access_run(addrs, 500, requestor="cpu",
                                          collect_latencies=True)
    now = 500
    expected = []
    for addr in addrs:
        result = loop_mc.access(addr, now, requestor="cpu")
        expected.append(result.latency)
        now = result.finish
    assert (finish, latencies) == (now, expected)
    assert _controller_state(run_mc) == _controller_state(loop_mc)


def test_access_run_rejects_out_of_range_like_access():
    bad = GEOM.capacity_bytes + 64
    with pytest.raises(ValueError) as single:
        make_controller().access(bad, issued=0)
    with pytest.raises(ValueError) as run:
        make_controller().access_run([64, 128, bad], 0)
    assert str(run.value) == str(single.value)
