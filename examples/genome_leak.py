#!/usr/bin/env python3
"""The §4.3 side channel end to end: leaking a genome's mapping profile.

1. Build a reference genome and its minimizer hash table, striped across
   the PiM system's DRAM banks (the shared index every user probes).
2. A victim maps reads from a *private* sample genome; its seeding step
   activates the bank holding each probed hash bucket.
3. A rate-matched attacker (``ReadMappingSideChannel``) rescans all banks
   with PEIs after each probe and decodes which bucket group the victim
   touched — narrowing each read's candidate reference positions without
   ever seeing the read.

Run:  python examples/genome_leak.py
"""

from repro import System, SystemConfig
from repro.attacks import ReadMappingSideChannel
from repro.genomics import (
    PimReadMapper,
    ReferenceIndex,
    generate_reference,
    mutate_genome,
    sample_reads,
)

NUM_BANKS = 1024


def main() -> None:
    config = (SystemConfig.paper_default()
              .with_banks(NUM_BANKS)
              .with_noise(0.0105))
    system = System(config)

    print("building reference genome + bank-striped minimizer index...")
    reference = generate_reference(20_000, seed=1)
    index = ReferenceIndex(reference, num_banks=NUM_BANKS)
    print(f"  {len(index)} hash-table buckets over {NUM_BANKS} banks "
          f"({index.entries_per_bank:.2f} buckets/bank)")

    print("victim: sequencing a private sample genome and mapping reads...")
    sample = mutate_genome(reference, seed=2)
    reads = sample_reads(sample, num_reads=5, read_length=150,
                         error_rate=0.002, seed=3)
    mapper = PimReadMapper(system, reference, index)
    for read, _true in reads[:3]:
        mapping = mapper.map_read(read)
        where = f"position {mapping.position}" if mapping else "unmapped"
        print(f"  read maps to {where}")

    schedule = mapper.trace_for_reads([r for r, _ in reads])
    print(f"victim's seeding will issue {len(schedule)} hash-table probes")

    print("attacker: scanning all banks after each victim probe...")
    channel = ReadMappingSideChannel(system)
    result = channel.run(schedule[:120],
                         entries_per_bank=index.entries_per_bank)
    print(result.summary())
    print(f"  leaked {result.leaked_bits:.0f} bits "
          f"({result.bits_per_leak:.0f} per observed probe) at "
          f"{result.throughput_mbps:.2f} Mb/s, accuracy {result.accuracy:.1%}")
    print(f"  (paper: 7.57 Mb/s at 96% accuracy with 1024 banks)")

    # What one leak buys the attacker: candidate buckets -> positions.
    leak_bank = schedule[0].bank
    candidates = index.candidates_in_bank(leak_bank)
    print(f"\none decoded probe (bank {leak_bank}) narrows the victim's "
          f"bucket to {len(candidates)} candidates out of {len(index)}")

    # Step 4 (Fig. 6): completion — match the leaked bank sequence
    # against the public index layout to identify the read's region.
    from repro.attacks import ReadIdentifier
    identifier = ReadIdentifier(reference, index)
    first_read, true_pos = reads[0]
    first_read_leak = [a.bank for a in mapper.seed_accesses(first_read)]
    candidate_grid = list(range(0, len(reference) - 150, 250))
    outcome = identifier.identify(first_read_leak, candidate_grid)
    print(f"\ncompletion attack on the first read (true region ~{true_pos}):")
    for entry in outcome.ranking[:3]:
        print(f"  region {entry.region_start:>6}  score {entry.score:.3f}")
    best = outcome.best.region_start
    verdict = "IDENTIFIED" if abs(best - true_pos) <= 250 else "missed"
    print(f"  -> top-ranked region {best}: {verdict} "
          f"(margin {outcome.margin:.3f})")


if __name__ == "__main__":
    main()
