"""Unit tests for DRAM timing parameters and derived latencies."""

import dataclasses
import pickle

import pytest

from repro.dram import DRAMTimings
from repro.dram.bank import Bank


def test_paper_defaults_produce_sec31_gap():
    """§3.1: a row conflict costs ~74 CPU cycles more than a hit."""
    t = DRAMTimings()
    assert t.conflict_cycles - t.hit_cycles == pytest.approx(70, abs=8)


def test_cycle_conversion_rounds():
    t = DRAMTimings(cpu_ghz=2.6)
    assert t.ns_to_cycles(13.5) == 35
    assert t.ns_to_cycles(100.0) == 260


def test_latency_ordering():
    t = DRAMTimings()
    assert t.hit_cycles < t.empty_cycles < t.conflict_cycles


def test_conflict_is_precharge_plus_empty():
    t = DRAMTimings()
    assert t.conflict_cycles == t.rp_cycles + t.empty_cycles


@pytest.mark.parametrize("cpu_ghz", [1.0, 1.3, 2.4, 2.6, 3.0, 3.7, 4.25])
def test_latencies_compose_from_rounded_components(cpu_ghz):
    """Composite latencies must be sums of the *rounded* per-command
    figures — never round(ns sum) — so the CPU access path (which pays
    ``conflict_cycles`` whole) and the PiM activate path (which pays
    ``rp_cycles + rcd_cycles`` piecewise) can never disagree by a
    rounding cycle, at any CPU frequency."""
    t = DRAMTimings(cpu_ghz=cpu_ghz)
    assert t.empty_cycles == t.rcd_cycles + t.cas_cycles
    assert t.conflict_cycles == t.rp_cycles + t.rcd_cycles + t.cas_cycles
    assert t.conflict_cycles - t.hit_cycles == t.rp_cycles + t.rcd_cycles


def test_sec31_gap_composition_at_paper_frequency():
    """The §3.1 ~74-cycle conflict-over-hit gap is exactly tRP + tRCD at
    the paper's 2.6 GHz (2 x 13.5 ns x 2.6 GHz = 70 cycles rounded)."""
    t = DRAMTimings()
    assert t.conflict_cycles - t.hit_cycles == t.rp_cycles + t.rcd_cycles == 70


def test_rowclone_latency_exceeds_single_activation():
    t = DRAMTimings()
    assert t.rowclone_fpm_cycles > t.rcd_cycles


def test_row_timeout_disabled_by_default():
    assert DRAMTimings().row_timeout_cycles == 0


def test_row_timeout_configurable():
    t = DRAMTimings(row_timeout_ns=100.0)
    assert t.row_timeout_cycles == 260


@pytest.mark.parametrize("field,value", [
    ("cpu_ghz", 0), ("t_rcd_ns", -1), ("t_rp_ns", 0), ("t_cas_ns", 0),
    ("t_ras_ns", 0), ("t_refi_ns", 0), ("t_rfc_ns", 0), ("row_timeout_ns", -5),
])
def test_invalid_parameters_rejected(field, value):
    with pytest.raises(ValueError):
        DRAMTimings(**{field: value})


CYCLE_FIGURES = ("rcd_cycles", "rp_cycles", "cas_cycles", "ras_cycles",
                 "refi_cycles", "rfc_cycles", "row_timeout_cycles",
                 "hit_cycles", "empty_cycles", "conflict_cycles",
                 "rowclone_fpm_cycles")


def figures(t):
    return {name: getattr(t, name) for name in CYCLE_FIGURES}


def test_replaced_timings_report_their_own_figures():
    """The figures are cached per object: a copy made with
    ``dataclasses.replace`` derives its own, never the original's."""
    t = DRAMTimings()
    before = figures(t)
    changed = dataclasses.replace(t, t_rp_ns=20)
    assert changed.rp_cycles == 52
    assert changed.conflict_cycles == 52 + 35 + 35
    assert changed.conflict_cycles - changed.hit_cycles == 52 + 35
    assert figures(changed) == figures(DRAMTimings(t_rp_ns=20))
    assert figures(t) == before


@pytest.mark.parametrize("warm", [False, True])
def test_pickled_timings_report_equal_figures(warm):
    """The worker pool pickles configs, with or without cached figures."""
    t = DRAMTimings(cpu_ghz=3.1, t_cas_ns=14.2, row_timeout_ns=80.0)
    expected = figures(DRAMTimings(cpu_ghz=3.1, t_cas_ns=14.2,
                                   row_timeout_ns=80.0))
    if warm:
        figures(t)
    clone = pickle.loads(pickle.dumps(t))
    assert clone == t
    assert figures(clone) == expected


def test_equality_and_hash_follow_fields_only():
    warm, cold = DRAMTimings(), DRAMTimings()
    figures(warm)
    assert warm == cold and hash(warm) == hash(cold)
    assert len({warm, cold}) == 1
    assert warm != DRAMTimings(t_cas_ns=14.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        warm.rcd_cycles = 1


def test_bank_hoists_its_timings_figures():
    t = DRAMTimings(cpu_ghz=3.1, t_rp_ns=15.0, t_ras_ns=35.0,
                    row_timeout_ns=80.0)
    bank = Bank(index=0, timings=t)
    assert (bank._hit_cycles, bank._empty_cycles, bank._conflict_cycles,
            bank._rcd_cycles, bank._rp_cycles, bank._rowclone_fpm_cycles,
            bank._timeout_cycles, bank._ras_cycles) == (
        t.hit_cycles, t.empty_cycles, t.conflict_cycles, t.rcd_cycles,
        t.rp_cycles, t.rowclone_fpm_cycles, t.row_timeout_cycles,
        t.ras_cycles)
