"""Unit tests for the RowClone engine (PuM substrate)."""

import pytest

from repro.dram import AccessKind, DRAMGeometry, MemoryController, MemoryControllerConfig
from repro.pim import RowCloneConfig, RowCloneEngine

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)


def make_engine(**kwargs):
    controller = MemoryController(MemoryControllerConfig(geometry=GEOM))
    return RowCloneEngine(RowCloneConfig(**kwargs), controller)


def clone_in_bank(engine, bank, src_row, dst_row, issued):
    """RowClone in bank ``bank`` alone (the receiver's probe, §4.2 step 3):
    row-aligned ranges share their row index across banks, and the mask
    selects the bank."""
    controller = engine.controller
    return engine.clone(controller.address_of(bank=0, row=src_row),
                        controller.address_of(bank=0, row=dst_row),
                        1 << bank, issued)


def test_single_rowclone_copies_within_bank():
    engine = make_engine()
    result = clone_in_bank(engine, 2, 10, 20, 0)
    assert result.banks == [2]
    assert engine.controller.open_rows()[2] == 20


def test_multi_bank_rowclone_is_parallel():
    """§4.2: one RowClone transmits N bits in parallel — wall clock is a
    single FPM, not N of them."""
    engine = make_engine()
    controller = engine.controller
    src = controller.address_of(bank=0, row=10)
    dst = controller.address_of(bank=0, row=20)
    full_mask = (1 << GEOM.num_banks) - 1
    result = engine.clone(src, dst, full_mask, issued=0)
    single = clone_in_bank(make_engine(), 0, 10, 20, 0)
    assert len(result.per_bank) == GEOM.num_banks
    assert result.latency == single.latency


def test_rowclone_contention_detectable_in_latency():
    """The receiver's signal (§4.2 step 3): a probe RowClone into a bank the
    sender perturbed is slower than into an untouched bank."""
    engine = make_engine()
    controller = engine.controller
    # Receiver initializes bank 0: src row open after the init clone.
    clone_in_bank(engine, 0, 10, 20, 0)
    clone_in_bank(engine, 1, 10, 20, 10_000)
    # Sender perturbs bank 1 only.
    controller.activate(bank_index=1, row=99, issued=20_000, requestor="sender")
    quiet = clone_in_bank(engine, 0, 20, 30, 30_000)
    noisy = clone_in_bank(engine, 1, 20, 30, 40_000)
    assert noisy.latency > quiet.latency
    assert noisy.per_bank[0].kind is AccessKind.CONFLICT


def test_rowclone_threshold_150_separates_outcomes():
    """Fig. 7(b): *measured* probe latencies (engine latency + the
    ~20-cycle rdtscp read the receiver pays) straddle the 150 threshold."""
    RDTSCP_READ = 20
    engine = make_engine()
    controller = engine.controller
    clone_in_bank(engine, 0, 10, 20, 0)
    quiet = clone_in_bank(engine, 0, 20, 30, 10_000)
    controller.activate(bank_index=0, row=99, issued=20_000, requestor="sender")
    noisy = clone_in_bank(engine, 0, 30, 40, 30_000)
    assert quiet.latency + RDTSCP_READ < 150 < noisy.latency + RDTSCP_READ


def test_mask_from_bits_roundtrip():
    bits = [1, 0, 1, 1, 0, 0, 0, 1]
    mask = RowCloneEngine.mask_from_bits(bits)
    assert mask == 0b10001101
    with pytest.raises(ValueError):
        RowCloneEngine.mask_from_bits([0, 2])


def test_empty_mask_clone_is_cheap_noop():
    engine = make_engine()
    src = engine.controller.address_of(bank=0, row=1)
    result = engine.clone(src, src, 0, issued=0)
    assert result.per_bank == []
    assert result.latency == (engine.config.issue_cycles
                              + 2 * engine.config.network_cycles)


def test_operations_counter():
    engine = make_engine()
    clone_in_bank(engine, 0, 1, 2, 0)
    clone_in_bank(engine, 1, 1, 2, 1000)
    assert engine.operations == 2


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        RowCloneConfig(issue_cycles=-1)


def test_rowclone_cross_subarray_falls_back_to_psm():
    """[52]: FPM needs src and dst in one subarray; crossing the boundary
    degrades to the serial mode, ~10x slower."""
    engine = make_engine()
    geom = engine.controller.config.geometry
    rows_per_sub = geom.rows_per_subarray
    fast = clone_in_bank(engine, 0, 1, 2, 0)
    slow = clone_in_bank(engine, 1, 1, rows_per_sub + 1, 0)
    assert slow.latency > 5 * fast.latency


def test_rowclone_same_subarray_uses_fpm_everywhere():
    engine = make_engine()
    geom = engine.controller.config.geometry
    base = geom.rows_per_subarray * 3  # any subarray works
    result = clone_in_bank(engine, 0, base + 1, base + 2, 0)
    t = engine.controller.config.timings
    assert result.latency < t.rowclone_psm_cycles(geom.lines_per_row)
