"""Unit tests for the DRAM bank row-buffer state machine."""

import pytest

from repro.dram import AccessKind, Bank, DRAMTimings

T = DRAMTimings()


def make_bank(**kwargs):
    return Bank(index=0, timings=DRAMTimings(**kwargs))


def test_first_access_is_empty():
    bank = make_bank()
    result = bank.access(row=5, issued=0)
    assert result.kind is AccessKind.EMPTY
    assert result.latency == T.empty_cycles
    assert bank.open_row == 5


def test_repeat_access_is_hit():
    bank = make_bank()
    bank.access(row=5, issued=0)
    result = bank.access(row=5, issued=1000)
    assert result.kind is AccessKind.HIT
    assert result.latency == T.hit_cycles


def test_different_row_is_conflict():
    bank = make_bank()
    bank.access(row=5, issued=0)
    result = bank.access(row=9, issued=1000)
    assert result.kind is AccessKind.CONFLICT
    assert result.latency == T.conflict_cycles
    assert bank.open_row == 9


def test_conflict_hit_gap_matches_sec31():
    """The attacker-observable gap (§3.1, ~74 cycles at DDR4-2400/2.6GHz)."""
    bank = make_bank()
    bank.access(row=1, issued=0)
    hit = bank.access(row=1, issued=500)
    conflict = bank.access(row=2, issued=1000)
    gap = conflict.latency - hit.latency
    assert gap == T.conflict_cycles - T.hit_cycles
    assert 60 <= gap <= 80


def test_busy_bank_queues_requests():
    bank = make_bank()
    first = bank.access(row=1, issued=0)
    second = bank.access(row=1, issued=first.finish - 10)
    assert second.service_start == first.finish
    assert second.queue_delay == 10
    assert second.latency == T.hit_cycles + 10


def test_close_after_auto_precharges():
    """Closed-row policy: the next access always sees EMPTY, never HIT."""
    bank = make_bank()
    bank.access(row=1, issued=0, close_after=True)
    assert bank.open_row is None
    result = bank.access(row=1, issued=1000, close_after=True)
    assert result.kind is AccessKind.EMPTY


def test_close_after_hides_precharge_but_occupies_bank():
    bank = make_bank()
    first = bank.access(row=1, issued=0, close_after=True)
    # Precharge is hidden: back-to-back access queues behind finish + tRP.
    second = bank.access(row=2, issued=first.finish)
    assert second.service_start == first.finish + T.rp_cycles
    assert second.kind is AccessKind.EMPTY


def test_activate_hit_costs_nothing_extra():
    bank = make_bank()
    bank.activate(row=3, issued=0)
    result = bank.activate(row=3, issued=500)
    assert result.kind is AccessKind.HIT
    assert result.latency == 0


def test_activate_conflict_pays_precharge():
    bank = make_bank()
    bank.activate(row=3, issued=0)
    result = bank.activate(row=4, issued=500)
    assert result.kind is AccessKind.CONFLICT
    assert result.latency == T.rp_cycles + T.rcd_cycles


def test_row_timeout_closes_idle_row():
    bank = make_bank(row_timeout_ns=100.0)
    first = bank.access(row=1, issued=0)
    timeout = bank.timings.row_timeout_cycles
    # Within the timeout: still a hit.
    within = bank.access(row=1, issued=first.finish + timeout - 1)
    assert within.kind is AccessKind.HIT
    # Beyond the timeout: the row auto-precharged.
    beyond = bank.access(row=1, issued=within.finish + timeout + 1)
    assert beyond.kind is AccessKind.EMPTY


def test_row_timeout_turns_conflict_into_empty():
    bank = make_bank(row_timeout_ns=100.0)
    first = bank.access(row=1, issued=0)
    timeout = bank.timings.row_timeout_cycles
    result = bank.access(row=2, issued=first.finish + timeout + 1)
    assert result.kind is AccessKind.EMPTY


def test_precharge_closes_row():
    bank = make_bank()
    bank.access(row=1, issued=0)
    finish = bank.precharge(issued=1000)
    assert bank.open_row is None
    assert finish == 1000 + T.rp_cycles


def test_precharge_idempotent_when_closed():
    bank = make_bank()
    assert bank.precharge(issued=50) == 50


def test_rowclone_fpm_latency_and_state():
    bank = make_bank()
    bank.activate(row=10, issued=0)  # src row open: fast FPM
    result = bank.rowclone_fpm(src_row=10, dst_row=20, issued=500)
    assert result.latency == T.rowclone_fpm_cycles
    assert bank.open_row == 20


def test_rowclone_conflict_pays_extra_precharge():
    """The PuM receiver's decodable signal: a perturbed row buffer makes the
    probe RowClone slower by tRP (§4.2)."""
    bank = make_bank()
    bank.activate(row=99, issued=0)  # unrelated row open
    result = bank.rowclone_fpm(src_row=10, dst_row=20, issued=500)
    assert result.kind is AccessKind.CONFLICT
    assert result.latency == T.rowclone_fpm_cycles + T.rp_cycles


def test_refresh_closes_row_and_blocks():
    bank = make_bank()
    bank.access(row=1, issued=0)
    bank.apply_refresh(until=5000)
    assert bank.open_row is None
    result = bank.access(row=1, issued=4000)
    assert result.service_start == 5000


def test_stats_accumulate():
    bank = make_bank()
    bank.access(row=1, issued=0)
    bank.access(row=1, issued=200)
    bank.access(row=2, issued=400)
    assert bank.stats.empties == 1
    assert bank.stats.hits == 1
    assert bank.stats.conflicts == 1
    assert bank.stats.accesses == 3
    assert bank.stats.hits / bank.stats.accesses == pytest.approx(1 / 3)
