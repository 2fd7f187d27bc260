"""Tests for the §4.3 step-4 inference (leak -> genome region)."""

import pytest

from repro import System, SystemConfig
from repro.attacks import ReadMappingSideChannel
from repro.attacks.inference import (
    IdentificationResult,
    ReadIdentifier,
    RegionScore,
    longest_common_subsequence,
)
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry
from repro.genomics import PimReadMapper, ReferenceIndex, generate_reference

REFERENCE = generate_reference(8000, seed=41)
NUM_BANKS = 256
INDEX = ReferenceIndex(REFERENCE, num_banks=NUM_BANKS)
IDENTIFIER = ReadIdentifier(REFERENCE, INDEX)
CANDIDATES = list(range(0, 7800, 300))


def test_lcs_basics():
    assert longest_common_subsequence([1, 2, 3], [1, 2, 3]) == 3
    assert longest_common_subsequence([1, 9, 2, 3], [1, 2, 8, 3]) == 3
    assert longest_common_subsequence([], [1]) == 0
    assert longest_common_subsequence([4, 5], [6, 7]) == 0


def test_predicted_banks_derive_from_public_index():
    banks = IDENTIFIER.predicted_banks(900)
    assert banks
    assert all(0 <= b < NUM_BANKS for b in banks)
    # Deterministic (and cached).
    assert IDENTIFIER.predicted_banks(900) == banks


def test_prediction_range_validation():
    with pytest.raises(ValueError):
        IDENTIFIER.predicted_banks(len(REFERENCE))
    with pytest.raises(ValueError):
        ReadIdentifier(REFERENCE, INDEX, read_length=5)


def test_perfect_leak_identifies_true_region():
    """An exact leak of the victim's probe banks ranks the true region
    first among the candidates."""
    true_start = 1200
    leak = IDENTIFIER.predicted_banks(true_start)
    decoys = [s for s in CANDIDATES if s != true_start]
    result = IDENTIFIER.identify(leak, decoys + [true_start])
    assert result.best.region_start == true_start
    assert result.rank_of(true_start) == 1
    assert result.margin > 0


def test_unrelated_leak_scores_low():
    leak = IDENTIFIER.predicted_banks(1200)
    wrong = IDENTIFIER.score_region(leak, 4500)
    right = IDENTIFIER.score_region(leak, 1200)
    assert right.score == 1.0
    assert wrong.score < 0.5


def test_identify_requires_candidates():
    with pytest.raises(ValueError):
        IDENTIFIER.identify([1, 2, 3], [])


def test_identification_accuracy_metric():
    trials = [(IDENTIFIER.predicted_banks(start), start)
              for start in (300, 2100, 5400)]
    accuracy = IDENTIFIER.identification_accuracy(
        trials, CANDIDATES, tolerance=0)
    assert accuracy == 1.0
    assert IDENTIFIER.identification_accuracy([], CANDIDATES) == 0.0


def test_more_banks_sharpen_identification():
    """§5.4: doubling the bank count leaks more precise information —
    decoy regions separate further from the true one."""
    coarse = ReadIdentifier(REFERENCE, INDEX.restripe(16))
    fine = ReadIdentifier(REFERENCE, INDEX.restripe(1024))
    true_start = 2400
    decoys = [s for s in CANDIDATES if abs(s - true_start) > 150]
    margins = {}
    for name, identifier in (("coarse", coarse), ("fine", fine)):
        leak = identifier.predicted_banks(true_start)
        result = identifier.identify(leak, decoys + [true_start])
        assert result.best.region_start == true_start
        margins[name] = result.margin
    assert margins["fine"] >= margins["coarse"]


def test_end_to_end_leak_to_identification():
    """Full chain: victim maps a read, attacker leaks banks through the
    timing channel, inference recovers the read's region."""
    system = System(SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=NUM_BANKS,
                              rows_per_bank=8192),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False)))
    true_start = 3300
    read = REFERENCE[true_start:true_start + 150]
    mapper = PimReadMapper(system, REFERENCE, INDEX)
    schedule = mapper.seed_accesses(read)
    channel = ReadMappingSideChannel(system)
    # Leak and reconstruct the observed bank sequence (noise-free run:
    # decoded banks == victim banks, in order).
    result = channel.run(schedule)
    assert result.error_rate == 0.0
    leaked_banks = [access.bank for access in schedule]
    identification = IDENTIFIER.identify(leaked_banks,
                                         CANDIDATES + [true_start])
    assert identification.best.region_start == true_start
