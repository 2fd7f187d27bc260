"""Tests for timing-based address reconnaissance and memory massaging."""

from dataclasses import replace

import pytest

from repro import System, SystemConfig
from repro.attacks.recon import AddressReconnaissance, BankFunctionModel
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry

GEOM = DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=256)


def make_system(mapping="row"):
    return System(SystemConfig(
        geometry=GEOM, mapping=mapping,
        hierarchy=HierarchyConfig(num_cores=1, llc_size_mb=2.0,
                                  prefetchers_enabled=False)))


def test_same_bank_probe_detects_row_thrashing():
    system = make_system()
    recon = AddressReconnaissance(system)
    a = system.address_of(bank=3, row=10)
    b = system.address_of(bank=3, row=20)
    c = system.address_of(bank=4, row=10)
    assert recon.same_bank_different_row(a, b)
    assert not recon.same_bank_different_row(a, c)


def test_same_bank_same_row_reads_fast():
    system = make_system()
    recon = AddressReconnaissance(system)
    a = system.address_of(bank=3, row=10, col=0)
    b = system.address_of(bank=3, row=10, col=256)
    assert not recon.same_bank_different_row(a, b)


@pytest.mark.parametrize("mapping", ["row", "line", "xor"])
def test_recovered_function_matches_ground_truth(mapping):
    """The recon must classify every bit exactly as the real mapper does:
    a bit is bank-affecting iff flipping it changes decode(addr).bank."""
    system = make_system(mapping)
    recon = AddressReconnaissance(system)
    model = recon.recover_bank_function(base=0)
    mapper = system.controller.mapper
    capacity = GEOM.capacity_bytes
    for bit in range(6, capacity.bit_length() - 1):
        truth_bank_affecting = (mapper.decode(0).bank
                                != mapper.decode(1 << bit).bank)
        assert (bit in model.bank_bits) == truth_bank_affecting, (mapping, bit)


def test_xor_mapping_produces_xor_groups():
    system = make_system("xor")
    recon = AddressReconnaissance(system)
    model = recon.recover_bank_function(base=0)
    # The xor scheme pairs each raw bank bit with a row bit.
    multi_bit_groups = [g for g in model.xor_groups if len(g) > 1]
    assert multi_bit_groups
    assert "^" in model.describe()


def test_row_mapping_groups_are_single_bits():
    system = make_system("row")
    recon = AddressReconnaissance(system)
    model = recon.recover_bank_function(base=0)
    assert all(len(g) == 1 for g in model.xor_groups)
    # 16 banks -> 4 bank bits at positions 13..16 (8 KB rows).
    assert model.bank_bits == (13, 14, 15, 16)


def test_column_bits_not_misclassified():
    system = make_system("row")
    recon = AddressReconnaissance(system)
    model = recon.recover_bank_function(base=0)
    # Bits 6..12 stay within one 8 KB row.
    for bit in range(6, 13):
        assert bit in model.column_bits


def test_memory_massaging_finds_co_located_rows():
    system = make_system("xor")
    recon = AddressReconnaissance(system)
    base = system.address_of(bank=5, row=7)
    mapper = system.controller.mapper
    found = recon.find_same_bank_addresses(base, count=4)
    assert len(found) == 4
    for addr in found:
        loc = mapper.decode(addr)
        assert loc.bank == 5
        assert loc.row != 7


def test_massaging_validation():
    recon = AddressReconnaissance(make_system())
    with pytest.raises(ValueError):
        recon.find_same_bank_addresses(0, count=0)


def test_pair_probe_validation():
    with pytest.raises(ValueError):
        AddressReconnaissance(make_system(), pair_probes=1)


def test_probe_budget_tracked():
    system = make_system()
    recon = AddressReconnaissance(system)
    recon.same_bank_different_row(system.address_of(0, 1),
                                  system.address_of(0, 2))
    assert recon.timing_probes == 2 * recon.pair_probes
