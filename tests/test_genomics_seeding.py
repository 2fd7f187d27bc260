"""Unit tests for minimizers, the reference index, chaining, alignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics import (
    Anchor,
    ReferenceIndex,
    banded_align,
    chain_anchors,
    extract_minimizers,
    generate_reference,
    hash_kmer,
)
from repro.genomics.minimizers import encode_kmer
from tests.helpers import identity

DNA = st.text(alphabet="ACGT", min_size=30, max_size=120)


# ---------------------------------------------------------------------------
# Minimizers
# ---------------------------------------------------------------------------

def test_encode_kmer_two_bits_per_base():
    assert encode_kmer("A") == 0
    assert encode_kmer("T") == 3
    assert encode_kmer("AC") == 1
    assert encode_kmer("CA") == 4
    with pytest.raises(ValueError):
        encode_kmer("ACGN")


def test_hash_kmer_deterministic_and_spread():
    assert hash_kmer("ACGTACGTACGTACG") == hash_kmer("ACGTACGTACGTACG")
    hashes = {hash_kmer("ACGTACGTACGTACG"[i:] + "A" * i) for i in range(8)}
    assert len(hashes) == 8


def test_minimizers_shared_by_identical_substrings():
    """The seeding guarantee: matching regions share minimizers."""
    ref = generate_reference(400, seed=1)
    fragment = ref[100:220]
    ref_minimizers = {m.hash_value for m in extract_minimizers(ref)}
    frag_minimizers = extract_minimizers(fragment)
    assert frag_minimizers
    shared = [m for m in frag_minimizers if m.hash_value in ref_minimizers]
    assert len(shared) >= len(frag_minimizers) * 0.8


def test_minimizers_sparser_than_kmers():
    seq = generate_reference(500, seed=2)
    minimizers = extract_minimizers(seq, k=15, w=10)
    assert 0 < len(minimizers) < len(seq) - 15 + 1


def test_minimizers_short_sequence_empty():
    assert extract_minimizers("ACGT", k=15, w=10) == []


def test_minimizers_validation():
    with pytest.raises(ValueError):
        extract_minimizers("ACGTACGT", k=0)


@given(seq=DNA)
@settings(max_examples=30)
def test_minimizer_positions_valid(seq):
    for m in extract_minimizers(seq, k=11, w=5):
        assert 0 <= m.position <= len(seq) - 11
        assert hash_kmer(seq[m.position:m.position + 11]) == m.hash_value


# ---------------------------------------------------------------------------
# Reference index
# ---------------------------------------------------------------------------

def make_index(num_banks=16):
    ref = generate_reference(3000, seed=7)
    return ref, ReferenceIndex(ref, num_banks=num_banks)


def test_index_lookup_returns_positions():
    ref, index = make_index()
    minimizers = extract_minimizers(ref)
    sample = minimizers[len(minimizers) // 2]
    positions = index.lookup(sample.hash_value)
    assert sample.position in positions


def test_index_absent_hash_empty():
    _, index = make_index()
    assert index.lookup(123456789) == []
    assert index.entry_index(123456789) is None


def test_index_entries_stripe_across_banks():
    _, index = make_index(num_banks=8)
    for entry in range(min(64, len(index))):
        loc = index.location_of_entry(entry)
        assert loc.bank == entry % 8
        assert loc.row >= index.rows_per_bank_offset


def test_index_entries_per_bank_halves_with_doubling():
    """§5.4: more banks => fewer candidate entries per bank => a more
    precise leak."""
    _, index = make_index(num_banks=8)
    double = index.restripe(16)
    assert double.entries_per_bank == pytest.approx(index.entries_per_bank / 2)
    assert len(double) == len(index)


def test_index_candidates_in_bank():
    _, index = make_index(num_banks=4)
    candidates = index.candidates_in_bank(1)
    assert all(c % 4 == 1 for c in candidates)
    with pytest.raises(ValueError):
        index.candidates_in_bank(4)


def test_index_location_validation():
    _, index = make_index()
    with pytest.raises(ValueError):
        index.location_of_entry(len(index))


# ---------------------------------------------------------------------------
# Chaining
# ---------------------------------------------------------------------------

def test_chain_colinear_anchors():
    anchors = [Anchor(read_pos=i * 20, ref_pos=500 + i * 20) for i in range(5)]
    chain = chain_anchors(anchors, min_score=10)
    assert chain is not None
    assert len(chain.anchors) == 5
    assert chain.ref_start == 500


def test_chain_rejects_inconsistent_anchors():
    """Anchors scattered across the reference cannot form one chain."""
    anchors = [Anchor(read_pos=0, ref_pos=100),
               Anchor(read_pos=10, ref_pos=90_000),
               Anchor(read_pos=20, ref_pos=50)]
    chain = chain_anchors(anchors, min_score=25)
    assert chain is None or len(chain.anchors) == 1 or chain.score < 40


def test_chain_prefers_dense_diagonal():
    diagonal = [Anchor(read_pos=i * 16, ref_pos=1000 + i * 16) for i in range(6)]
    stray = [Anchor(read_pos=5, ref_pos=70_000)]
    chain = chain_anchors(diagonal + stray, min_score=10)
    assert chain is not None
    assert all(1000 <= a.ref_pos < 1200 for a in chain.anchors)


def test_chain_empty_input():
    assert chain_anchors([]) is None


def test_chain_min_score_gate():
    assert chain_anchors([Anchor(read_pos=0, ref_pos=0, length=5)],
                         min_score=50.0) is None


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def test_align_identical_sequences():
    result = banded_align("ACGTACGTAC", "ACGTACGTAC")
    assert result.mismatches == 0
    assert result.gaps == 0
    assert identity(result) == 1.0
    assert result.cigar == "10M"
    assert result.score == 20


def test_align_substitution():
    result = banded_align("ACGTACGTAC", "ACGTTCGTAC")
    assert result.mismatches == 1
    assert result.matches == 9


def test_align_insertion_gap():
    result = banded_align("ACGTAACGT", "ACGTACGT")
    assert result.gaps == 1
    assert result.matches == 8


def test_align_band_too_narrow_handled():
    # band is widened automatically to cover the length difference
    result = banded_align("A" * 10, "A" * 40, band=1)
    assert result.matches == 10


def test_align_validation():
    with pytest.raises(ValueError):
        banded_align("ACGT", "ACGT", band=0)


@given(seq=DNA)
@settings(max_examples=25)
def test_align_self_is_perfect(seq):
    result = banded_align(seq, seq)
    assert identity(result) == 1.0
    assert result.score == 2 * len(seq)
