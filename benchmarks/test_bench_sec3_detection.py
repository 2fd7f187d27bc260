"""§3: cache-monitoring detection is inapplicable to PiM attacks.

The paper's hard-to-mitigate argument: detectors that watch cache-side
performance counters (miss ratios, flush rates — [63-66]) catch the
classic channels but read all-zero counters for IMPACT, because PiM
operations never enter the cache hierarchy.
"""

from dataclasses import replace

from repro import SystemConfig
from repro.attacks import (
    DmaEngineChannel,
    DramaClflushChannel,
    DramaEvictionChannel,
    ImpactPnmChannel,
    ImpactPumChannel,
)
from repro.detection import run_detection_experiment

CHANNELS = [
    ("DRAMA-clflush", DramaClflushChannel, "row", 96),
    ("DRAMA-eviction", DramaEvictionChannel, "xor", 48),
    ("DMA-engine", DmaEngineChannel, "row", 128),
    ("IMPACT-PnM", ImpactPnmChannel, "row", 192),
    ("IMPACT-PuM", ImpactPumChannel, "row", 192),
]


def sweep():
    reports = {}
    for name, cls, mapping, bits in CHANNELS:
        config_factory = lambda m=mapping: replace(
            SystemConfig.paper_default(), mapping=m)
        reports[name] = run_detection_experiment(
            lambda s, c=cls: c(s), config_factory, bits=bits)
    return reports


def test_sec3_cache_monitor_detection(result_table):
    reports = sweep()
    table = result_table(
        "sec3_detection",
        ["attack", "side", "cache_accesses", "llc_misses", "clflushes",
         "flagged", "reason"],
        title="Sec 3: PMU-based detector vs each covert channel")
    for name, sides in reports.items():
        for side, report in sides.items():
            row = report.row()
            table.add(name, side, row["accesses"], row["misses"],
                      row["clflushes"], row["flagged"], row["reason"])
    table.emit()

    # The cache-mediated channels are caught...
    assert any(reports["DRAMA-clflush"][s].flagged
               for s in ("sender", "receiver"))
    assert any(reports["DRAMA-eviction"][s].flagged
               for s in ("sender", "receiver"))
    # ...while the cache-bypassing ones produce zero observable events.
    for name in ("IMPACT-PnM", "IMPACT-PuM", "DMA-engine"):
        for side in ("sender", "receiver"):
            report = reports[name][side]
            assert not report.flagged, (name, side)
            assert report.accesses == 0
            assert report.clflushes == 0
