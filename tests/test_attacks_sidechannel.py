"""Integration tests for the read-mapping side channel (§4.3, Fig. 10)."""

import pytest

from repro import System, SystemConfig
from repro.attacks import (
    ReadMappingSideChannel,
    SideChannelConfig,
    fake_schedule,
)
from repro.cache import HierarchyConfig
from repro.dram import DRAMGeometry
from repro.exp.figures import FIG10_NOISE_RATE, _fig10_schedule
from repro.genomics import (
    PimReadMapper,
    ReferenceIndex,
    generate_reference,
    sample_reads,
)
from repro.obs import Tracer


def bank_config(num_banks, noise=0.0):
    cfg = SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=num_banks,
                              rows_per_bank=8192),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))
    if noise:
        cfg = cfg.with_noise(noise)
    return cfg


def test_noise_free_attack_is_exact():
    system = System(bank_config(64))
    channel = ReadMappingSideChannel(system)
    schedule = fake_schedule(64, 40, seed=1)
    result = channel.run(schedule)
    assert result.correct == 40
    assert result.error_rate == 0.0
    assert result.accuracy == 1.0


def test_leak_identifies_actual_victim_banks():
    """Every decoded leak corresponds to the bank the victim touched."""
    system = System(bank_config(32))
    channel = ReadMappingSideChannel(system)
    schedule = fake_schedule(32, 24, seed=2)
    result = channel.run(schedule)
    assert result.missed == 0
    assert result.false_positives == 0


def test_bits_per_leak_is_log2_banks():
    system = System(bank_config(1024))
    channel = ReadMappingSideChannel(system)
    result = channel.run(fake_schedule(1024, 4, seed=0))
    assert result.bits_per_leak == 10.0


def test_throughput_drops_with_more_banks():
    """Fig. 10, left axis: more banks -> longer scans -> less bandwidth."""
    results = {}
    for banks in (256, 1024, 4096):
        system = System(bank_config(banks))
        schedule = fake_schedule(banks, 30, seed=3)
        results[banks] = ReadMappingSideChannel(system).run(schedule)
    assert (results[256].throughput_mbps > results[1024].throughput_mbps
            > results[4096].throughput_mbps)


def test_error_rate_grows_with_more_banks_under_noise():
    """Fig. 10, right axis: longer scan windows collect more stray
    activations."""
    errors = {}
    for banks in (1024, 8192):
        system = System(bank_config(banks, noise=0.0105))
        schedule = fake_schedule(banks, 60, seed=4)
        errors[banks] = ReadMappingSideChannel(system).run(schedule).error_rate
    assert errors[8192] > errors[1024]


def test_fig10_anchor_points():
    """§5.4: ~7.57 Mb/s @ 1024 banks (<5% error); ~2.56 Mb/s @ 8192
    (<15% error)."""
    system = System(bank_config(1024, noise=0.0105))
    r1024 = ReadMappingSideChannel(system).run(fake_schedule(1024, 80, seed=5))
    assert r1024.throughput_mbps == pytest.approx(7.57, rel=0.12)
    assert r1024.error_rate < 0.05

    system = System(bank_config(8192, noise=0.0105))
    r8192 = ReadMappingSideChannel(system).run(fake_schedule(8192, 40, seed=5))
    assert r8192.throughput_mbps == pytest.approx(2.56, rel=0.12)
    assert r8192.error_rate < 0.15


def test_end_to_end_with_real_read_mapper():
    """Victim = actual PiM read mapper; attacker decodes its seeding."""
    num_banks = 64
    system = System(bank_config(num_banks))
    reference = generate_reference(4000, seed=21)
    index = ReferenceIndex(reference, num_banks=num_banks)
    pim = PimReadMapper(system, reference, index)
    reads = [r for r, _ in sample_reads(reference, num_reads=3,
                                        read_length=120, error_rate=0.0,
                                        seed=22)]
    schedule = pim.trace_for_reads(reads)
    assert schedule
    result = ReadMappingSideChannel(system).run(
        schedule, entries_per_bank=index.entries_per_bank)
    assert result.error_rate == 0.0
    assert result.entries_per_bank == index.entries_per_bank


@pytest.mark.parametrize("anchor_row", [10**9, -5, 8192])
def test_out_of_range_anchor_row_rejected(anchor_row):
    """The rescan hands the anchor row to the PEI engine pre-decoded, past
    the address mapping's range check, so the channel checks it."""
    system = System(bank_config(16))
    with pytest.raises(ValueError, match="anchor row"):
        ReadMappingSideChannel(system, SideChannelConfig(anchor_row=anchor_row))
    ReadMappingSideChannel(system, SideChannelConfig(anchor_row=8191))


def test_anchor_row_collision_rejected():
    system = System(bank_config(16))
    channel = ReadMappingSideChannel(system,
                                     SideChannelConfig(anchor_row=1024))
    with pytest.raises(ValueError):
        channel.run(fake_schedule(16, 4, seed=0, row_offset=1024))


def test_config_validation():
    with pytest.raises(ValueError):
        SideChannelConfig(scan_issue_gap_cycles=0)
    with pytest.raises(ValueError):
        SideChannelConfig(victim_compute_cycles=-1)


def test_summary_format():
    system = System(bank_config(16))
    result = ReadMappingSideChannel(system).run(fake_schedule(16, 4, seed=0),
                                                entries_per_bank=4.0)
    text = result.summary()
    assert "16 banks" in text
    assert "Mb/s" in text


def test_side_channel_generalizes_to_pagerank_victim():
    """§4.3's mechanism is application-agnostic: the same attacker leaks a
    PEI-accelerated PageRank's vertex-gather banks, exposing which part of
    the (shared) graph the victim is processing."""
    from repro.genomics.index import BucketLocation
    from repro.genomics.pim_mapper import SeedAccess
    from repro.workloads import generate_graph
    from repro.workloads.kernels import Layout

    num_banks = 128
    system = System(bank_config(num_banks))
    graph = generate_graph(200, avg_degree=6, seed=7)
    layout = Layout(node_bytes=64)
    mapper = system.controller.mapper
    # The victim's rank-gather schedule for a vertex range, expressed as
    # generic (bank, row) accesses.
    schedule = []
    for u in range(40, 60):
        for v in graph.neighbors(u):
            loc = mapper.decode(layout.data_addr(v))
            if loc.row == 50:  # avoid the attacker's anchor row
                continue
            schedule.append(SeedAccess(hash_value=v, location=BucketLocation(
                entry_index=v, bank=loc.bank, row=loc.row, col=loc.col)))
    assert schedule
    result = ReadMappingSideChannel(system).run(schedule)
    assert result.error_rate == 0.0
    assert result.correct == len(schedule)


def test_pum_threshold_calibration():
    from repro.attacks import ImpactPumChannel
    channel = ImpactPumChannel(System(bank_config(16)))
    threshold = channel.calibrate_threshold()
    assert 130 <= threshold <= 190
    result = channel.transmit_random(48, seed=8)
    assert result.error_rate == 0.0
    with pytest.raises(ValueError):
        channel.calibrate_threshold(samples=0)


# ---------------------------------------------------------------------------
# Deferred rescans over whole runs
# ---------------------------------------------------------------------------

def _fig10_config(num_banks):
    return (SystemConfig.paper_default().with_banks(num_banks)
            .with_noise(FIG10_NOISE_RATE))


def _run_and_state(config, schedule, traced):
    """One run on a fresh system; with ``traced`` a Tracer on the PEI
    engine sends every rescan through ``execute_parallel``."""
    system = System(config, sanitize=False)
    if traced:
        system.pei.set_observer(Tracer())
    result = ReadMappingSideChannel(system).run(schedule)
    controller = system.controller
    banks = [(b.open_row, b.busy_until, b.last_activation, b.row_opened_at,
              b.stats) for b in controller.device.banks]
    return (result, controller.requestor_stats,
            system.pei.memory_executions, banks)


@pytest.mark.parametrize("config,schedule", [
    (lambda: _fig10_config(1024), lambda: _fig10_schedule(1024, 100)[0]),
], ids=["fig10-1024"])
def test_run_matches_a_traced_run(config, schedule):
    """A whole run with deferred rescans leaves the result, the counters
    and every bank as the same run through ``execute_parallel`` does.
    Victim PEIs inside a rescan's window are drawn by
    ``tests/test_pim_pei.py::test_deferred_rescans_match_reference``."""
    fast = _run_and_state(config(), schedule(), traced=False)
    traced = _run_and_state(config(), schedule(), traced=True)
    assert fast == traced
    assert fast[0].false_positives > 0  # noise reached the decode


class _CountingBanks(list):
    """A bank list that counts indexed lookups."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return list.__getitem__(self, index)


def test_fig10_rescans_visit_only_touched_banks():
    """After the first rescan, Fig. 10's rescans run the bank model only
    over the banks the victim and the noise touched: a run that fell back
    to the full loop would look up 1024 banks per round."""
    system = System(_fig10_config(1024), sanitize=False)
    device = system.controller.device
    device.banks = _CountingBanks(device.banks)
    result = ReadMappingSideChannel(system).run(_fig10_schedule(1024, 20)[0])
    assert result.correct == 20
    # The first rescan and the final settle() look up every bank once.
    assert device.banks.lookups < 3 * 1024
