#!/usr/bin/env python3
"""The attack's prologue: reverse-engineer the DRAM mapping, then co-locate.

Before the §4 channels can run, the attacker needs the physical bank
function (§2.3's DRAMA capability) and addresses sharing the victim's
bank (§4.1's memory massaging).  Both come from timing alone:

1. classify every physical-address bit by probing address pairs,
2. recover the XOR bank hash the controller uses,
3. collect co-located rows by timing candidate addresses,
4. run the channel over the recovered co-location.

Run:  python examples/recon_and_massage.py
"""

from dataclasses import replace

from repro import System, SystemConfig
from repro.analysis import latency_histogram
from repro.attacks import AddressReconnaissance, ImpactPnmChannel
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry


def main() -> None:
    # A machine with the DRAMA-style XOR bank hash (the hard case).
    config = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=512),
        mapping="xor",
        hierarchy=HierarchyConfig(num_cores=2, prefetchers_enabled=False))
    system = System(config)
    recon = AddressReconnaissance(system)

    print("step 1-2: recovering the bank function by timing...")
    model = recon.recover_bank_function()
    print(f"  {model.describe()}")
    print(f"  cost: {recon.timing_probes} timed probes")

    print("\nstep 3: massaging — collecting rows co-located with the "
          "victim's bank...")
    victim_bank = 11
    base = system.address_of(victim_bank, 7)
    colocated = recon.find_same_bank_addresses(base, count=3)
    mapper = system.controller.mapper
    for addr in colocated:
        loc = mapper.decode(addr)
        print(f"  {addr:#012x} -> bank {loc.bank}, row {loc.row}")

    print("\nstep 4: running IMPACT-PnM over the recovered co-location...")
    # Single shared bank => one bit per batch (strict lockstep).
    channel = ImpactPnmChannel(system, banks=[victim_bank], batch_size=1)
    threshold = channel.calibrate_threshold(calibration_rows=(500, 510))
    print(f"  calibrated decode threshold: {threshold} cycles")
    result = channel.transmit_random(64, seed=1)
    print(f"  {result.summary()}")
    print()
    print(latency_histogram(result.probe_latencies, bucket_cycles=10,
                            threshold=threshold,
                            title="receiver probe latencies (Fig. 7 shape)"))


if __name__ == "__main__":
    main()
