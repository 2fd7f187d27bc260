"""§4.3 step 4 + §5.4 precision: from leaked banks to genome inference.

The paper defers the completion attack to the imputation literature
[110-113] and argues qualitatively that more banks leak *more precise*
information (fewer candidate entries per bank).  This bench makes that
argument quantitative: the attacker matches leaked bank sequences against
the (public) index layout and identifies which reference region the
victim's read came from; identification sharpens as the bank count grows.
"""

from repro.attacks import ReadIdentifier
from repro.genomics import ReferenceIndex, generate_reference, sample_reads

REFERENCE = generate_reference(12_000, seed=51)
BASE_INDEX = ReferenceIndex(REFERENCE, num_banks=64)
BANK_COUNTS = [16, 64, 256, 1024]
CANDIDATE_STARTS = list(range(0, 11_800, 200))


def sweep():
    reads = sample_reads(REFERENCE, num_reads=12, read_length=150,
                         error_rate=0.0, seed=52)
    results = {}
    for banks in BANK_COUNTS:
        index = BASE_INDEX.restripe(banks)
        identifier = ReadIdentifier(REFERENCE, index)
        trials = []
        correct = 0
        margins = []
        for _read, true_pos in reads:
            # Snap to the candidate grid for rank accounting.
            snapped = min(CANDIDATE_STARTS, key=lambda s: abs(s - true_pos))
            leak = identifier.predicted_banks(true_pos)
            outcome = identifier.identify(leak, CANDIDATE_STARTS)
            if abs(outcome.best.region_start - true_pos) <= 200:
                correct += 1
            margins.append(outcome.margin)
        results[banks] = {
            "accuracy": correct / len(reads),
            "mean_margin": sum(margins) / len(margins),
            "entries_per_bank": index.entries_per_bank,
        }
    return results


def test_sec43_inference_precision(result_table):
    results = sweep()
    table = result_table(
        "sec43_inference",
        ["banks", "identification_accuracy", "mean_margin",
         "entries_per_bank"],
        title="Sec 4.3/5.4: read-region identification from leaked banks")
    for banks in BANK_COUNTS:
        r = results[banks]
        table.add(banks, round(r["accuracy"], 3), round(r["mean_margin"], 3),
                  round(r["entries_per_bank"], 2))
    table.emit()

    accuracies = [results[b]["accuracy"] for b in BANK_COUNTS]
    margins = [results[b]["mean_margin"] for b in BANK_COUNTS]
    # §5.4: precision improves with bank count.
    assert accuracies[-1] >= accuracies[0]
    assert accuracies[-1] >= 0.9
    assert margins[-1] > margins[0]
    # Candidate ambiguity halves per doubling.
    entries = [results[b]["entries_per_bank"] for b in BANK_COUNTS]
    assert entries == sorted(entries, reverse=True)
