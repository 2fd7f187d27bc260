"""Integration tests: the end-to-end read mapper and its PiM offload."""

import pytest

from repro import System, SystemConfig
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry
from repro.genomics import (
    PimReadMapper,
    ReadMapper,
    ReferenceIndex,
    generate_reference,
    mutate_genome,
    sample_reads,
)
from repro.sim import Scheduler
from tests.helpers import identity

REF = generate_reference(6000, seed=11)
INDEX = ReferenceIndex(REF, num_banks=16)
MAPPER = ReadMapper(REF, INDEX)


def small_system():
    return System(SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False)))


def test_exact_reads_map_to_true_positions():
    reads = sample_reads(REF, num_reads=10, read_length=150,
                         error_rate=0.0, seed=3)
    for read, true_pos in reads:
        result = MAPPER.map_read(read)
        assert result is not None
        assert abs(result.position - true_pos) <= 64


def test_error_bearing_reads_still_map():
    reads = sample_reads(REF, num_reads=10, read_length=150,
                         error_rate=0.01, seed=4)
    mapped = 0
    for read, true_pos in reads:
        result = MAPPER.map_read(read)
        mapped += result is not None and abs(result.position - true_pos) <= 64
    assert mapped / len(reads) >= 0.8


def test_sample_genome_reads_map_against_reference():
    """The §4.3 victim workload: sample-genome reads vs the reference."""
    sample = mutate_genome(REF, seed=9)
    reads = sample_reads(sample, num_reads=8, read_length=150,
                         error_rate=0.002, seed=5)
    mapped = sum(1 for read, _pos in reads if MAPPER.map_read(read) is not None)
    assert mapped >= 6


def test_random_read_does_not_map():
    foreign = generate_reference(150, seed=999)
    assert MAPPER.map_read(foreign) is None


def test_alignment_quality_reported():
    read, _pos = sample_reads(REF, num_reads=1, read_length=150,
                              error_rate=0.0, seed=6)[0]
    result = MAPPER.map_read(read)
    assert identity(result.alignment) > 0.95
    assert result.score > 0


def test_pim_mapper_seed_accesses_match_index_layout():
    system = small_system()
    pim = PimReadMapper(system, REF, INDEX, mapper=MAPPER)
    read, _pos = sample_reads(REF, num_reads=1, read_length=150,
                              error_rate=0.0, seed=7)[0]
    accesses = pim.seed_accesses(read)
    assert accesses
    for access in accesses:
        loc = INDEX.location_of_hash(access.hash_value)
        assert loc is not None
        assert (access.bank, access.row) == (loc.bank, loc.row)
        assert 0 <= access.bank < 16


def test_pim_mapper_probe_activates_bank():
    system = small_system()
    pim = PimReadMapper(system, REF, INDEX, mapper=MAPPER)
    read, _pos = sample_reads(REF, num_reads=1, read_length=150,
                              error_rate=0.0, seed=7)[0]
    access = pim.seed_accesses(read)[0]
    sched = Scheduler()

    def victim(ctx, _sys):
        pim.probe(ctx, access)
        yield None

    sched.spawn(victim, system, name="victim")
    sched.run()
    assert system.controller.open_rows()[access.bank] == access.row


def test_pim_mapper_trace_concatenates_reads():
    system = small_system()
    pim = PimReadMapper(system, REF, INDEX, mapper=MAPPER)
    reads = [r for r, _ in sample_reads(REF, num_reads=3, read_length=120,
                                        error_rate=0.0, seed=8)]
    trace = pim.trace_for_reads(reads)
    assert len(trace) == sum(len(pim.seed_accesses(r)) for r in reads)


def test_pim_mapper_mapping_output_unchanged():
    system = small_system()
    pim = PimReadMapper(system, REF, INDEX, mapper=MAPPER)
    read, true_pos = sample_reads(REF, num_reads=1, read_length=150,
                                  error_rate=0.0, seed=10)[0]
    result = pim.map_read(read)
    assert result is not None
    assert abs(result.position - true_pos) <= 64


def test_reverse_strand_reads_map():
    """Half of real sequencing reads come from the reverse strand; the
    mapper retries with the reverse complement."""
    from repro.genomics import reverse_complement
    reads = sample_reads(REF, num_reads=6, read_length=150, error_rate=0.0,
                         seed=13, both_strands=True)
    reversed_any = any(read != REF[pos:pos + 150] for read, pos in reads)
    assert reversed_any  # the sampler actually flipped some
    for read, true_pos in reads:
        result = MAPPER.map_read(read)
        assert result is not None
        assert abs(result.position - true_pos) <= 64


def test_reverse_complement_involution():
    from repro.genomics import reverse_complement
    assert reverse_complement("ACGT") == "ACGT"
    assert reverse_complement("AACC") == "GGTT"
    assert reverse_complement(reverse_complement("ACGGTTAC")) == "ACGGTTAC"
    import pytest as _pytest
    with _pytest.raises(ValueError):
        reverse_complement("ACGN")
