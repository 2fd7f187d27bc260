"""Unit and property tests for DRAM address mappings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    DRAMGeometry,
    LineInterleavedMapping,
    RowInterleavedMapping,
    XorBankMapping,
    make_mapping,
)

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=1024)
MAPPINGS = {
    "row": RowInterleavedMapping(GEOM),
    "line": LineInterleavedMapping(GEOM),
    "xor": XorBankMapping(GEOM),
}


def test_geometry_defaults_match_table2():
    geom = DRAMGeometry()
    assert geom.banks_per_rank == 16
    assert geom.ranks == 4
    assert geom.channels == 1
    assert geom.row_bytes == 8192


def test_geometry_validation():
    with pytest.raises(ValueError):
        DRAMGeometry(ranks=0)
    with pytest.raises(ValueError):
        DRAMGeometry(row_bytes=100, line_bytes=64)


def test_make_mapping_dispatch():
    for name, cls in [("row", RowInterleavedMapping),
                      ("line", LineInterleavedMapping),
                      ("xor", XorBankMapping)]:
        assert isinstance(make_mapping(name, GEOM), cls)
    with pytest.raises(ValueError):
        make_mapping("banana", GEOM)


def test_row_interleaved_keeps_row_contiguous():
    mapping = MAPPINGS["row"]
    base = mapping.encode(bank=3, row=7, col=0)
    for col in (0, 64, GEOM.row_bytes - 1):
        loc = mapping.decode(base + col)
        assert (loc.bank, loc.row, loc.col) == (3, 7, col)


def test_line_interleaved_stripes_lines_across_banks():
    mapping = MAPPINGS["line"]
    locs = [mapping.decode(line * GEOM.line_bytes) for line in range(GEOM.num_banks)]
    assert [loc.bank for loc in locs] == list(range(GEOM.num_banks))


def test_xor_mapping_spreads_same_raw_bank_across_rows():
    mapping = MAPPINGS["xor"]
    stride = GEOM.row_bytes * GEOM.num_banks  # same raw bank, consecutive rows
    banks = {mapping.decode(row * stride).bank for row in range(GEOM.num_banks)}
    assert len(banks) == GEOM.num_banks


def test_xor_requires_power_of_two_banks():
    geom = DRAMGeometry(ranks=1, banks_per_rank=12, rows_per_bank=64)
    with pytest.raises(ValueError):
        XorBankMapping(geom)


def test_out_of_range_rejected():
    mapping = MAPPINGS["row"]
    with pytest.raises(ValueError):
        mapping.decode(GEOM.capacity_bytes)
    with pytest.raises(ValueError):
        mapping.encode(bank=GEOM.num_banks, row=0)
    with pytest.raises(ValueError):
        mapping.encode(bank=0, row=GEOM.rows_per_bank)
    with pytest.raises(ValueError):
        mapping.encode(bank=0, row=0, col=GEOM.row_bytes)


@pytest.mark.parametrize("name", sorted(MAPPINGS))
@given(addr=st.integers(min_value=0, max_value=GEOM.capacity_bytes - 1))
@settings(max_examples=200)
def test_decode_encode_roundtrip(name, addr):
    """encode(decode(addr)) == addr for every mapping (invertibility), and
    the controller's ``decode_bank_row`` shortcut agrees with decode."""
    mapping = MAPPINGS[name]
    loc = mapping.decode(addr)
    assert mapping.encode(loc.bank, loc.row, loc.col) == addr
    assert mapping.decode_bank_row(addr) == (loc.bank, loc.row)
    assert 0 <= loc.bank < GEOM.num_banks
    assert 0 <= loc.row < GEOM.rows_per_bank
    assert 0 <= loc.col < GEOM.row_bytes


@pytest.mark.parametrize("name", sorted(MAPPINGS))
@given(bank=st.integers(min_value=0, max_value=GEOM.num_banks - 1),
       row=st.integers(min_value=0, max_value=GEOM.rows_per_bank - 1),
       col=st.integers(min_value=0, max_value=GEOM.row_bytes - 1))
@settings(max_examples=200)
def test_encode_decode_roundtrip(name, bank, row, col):
    """decode(encode(loc)) == loc — the attacker's massaging primitive is
    exact for every mapping."""
    mapping = MAPPINGS[name]
    addr = mapping.encode(bank, row, col)
    loc = mapping.decode(addr)
    assert (loc.bank, loc.row, loc.col) == (bank, row, col)


def test_subarray_geometry():
    geom = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=1024,
                        subarrays_per_bank=16)
    assert geom.rows_per_subarray == 64


def test_subarray_validation():
    import pytest as _pytest
    with _pytest.raises(ValueError):
        DRAMGeometry(rows_per_bank=100, subarrays_per_bank=33)
