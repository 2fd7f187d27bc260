"""Bit-identity tests for the vectorized miss path (PR 7).

The miss engine bulk-commits whole full-miss spans — LLC/L2/L1 fill
plans plus a grouped DRAM conflict run — so these tests drive the
shapes it specializes for (conflict-alternating replays, streaming
sweeps, mixed traffic) across replacement policies, address mappings,
and refresh, and require the vector backend to match the scalar
reference bit for bit: finish times, per-access latencies, and every
observable piece of cache/bank/stats state.

Everything here runs under ``REPRO_SANITIZE=1`` and
``REPRO_NO_VECTOR=1`` too: both env directives silently downgrade the
vector backend to the reference loop, so the comparisons become
trivially scalar-vs-scalar but still execute every call site.
"""

import dataclasses
import random

import pytest

from repro.config import SystemConfig
from repro.sim import vector
from repro.system import System

from tests.test_vector_engine import _config, _full_state

pytestmark = pytest.mark.skipif(
    not vector.numpy_available(),
    reason=f"numpy unavailable: {vector.numpy_error()}")


# ----------------------------------------------------------------------
# Stream generators: the miss-dominated shapes the engine targets
# ----------------------------------------------------------------------


def _conflict_replay(system, count):
    """Bank-conflict-alternating replay: adjacent accesses hit the same
    bank on different rows (the covert-channel sender/receiver shape),
    spread over sets so caches never filter them."""
    nb = system.num_banks
    addrs = []
    for i in range(count):
        bank = (i // 2) % nb
        col = (i // (2 * nb)) % 128
        pair = i // (2 * nb * 128)
        row = 2 * pair + (i & 1)
        addrs.append(system.address_of(bank, row % 4096, col * 64))
    return addrs


def _streaming_sweep(count, base=0x2000000):
    """Sequential line sweep, the fig11 streaming shape."""
    return [base + i * 64 for i in range(count)]


def _mixed_miss_stream(rng, system, count):
    """Conflict bursts + short-range reuse + sequential bursts, in
    random order — spans start and stop mid-chunk, hits interleave."""
    addrs = []
    i = 0
    nb = system.num_banks
    while len(addrs) < count:
        roll = rng.random()
        if roll < 0.45:
            for _ in range(rng.randrange(40, 200)):
                bank = (i // 2) % nb
                col = (i // (2 * nb)) % 128
                pair = i // (2 * nb * 128)
                row = 2 * pair + (i & 1)
                addrs.append(system.address_of(bank, row % 4096,
                                               (col % 128) * 64))
                i += 1
        elif roll < 0.70 and addrs:
            for _ in range(rng.randrange(20, 120)):
                addrs.append(rng.choice(addrs[-300:]))
        else:
            base = rng.randrange(0, 1 << 22) * 64
            addrs.extend(base + t * 64
                         for t in range(rng.randrange(30, 150)))
    return addrs[:count]


def _run_miss_stream(config, addrs, backend, *, write_chunks=False,
                     probes=None):
    """One full run: scalar warm prefix, chunked demand stream (with an
    optional alternating write chunk), then probe replays; returns the
    timing observables plus the complete end state."""
    system = System(config)
    hierarchy = system.hierarchy
    now = hierarchy.access_batch(0, addrs[:200], 0, requestor="recv",
                                 backend="scalar")
    step = 1500
    for chunk_index, start in enumerate(range(200, len(addrs), step)):
        chunk = addrs[start:start + step]
        is_write = write_chunks and chunk_index % 2 == 1
        now = hierarchy.access_batch(0, chunk, now, requestor="recv",
                                     backend=backend, is_write=is_write)
    latencies = None
    if probes:
        now, latencies = hierarchy.probe_batch(0, probes, now,
                                               requestor="recv",
                                               backend=backend)
    return now, latencies, _full_state(system)


# ----------------------------------------------------------------------
# Identity on the specialized shapes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("replacement", ["lru", "srrip", "random"])
def test_conflict_replay_matches_scalar(replacement):
    config = _config(prefetchers=False, replacement=replacement)
    addrs = _conflict_replay(System(config), 12_000)
    probes = addrs[:2000]
    scalar = _run_miss_stream(config, addrs, "scalar", probes=probes)
    vectored = _run_miss_stream(config, addrs, "vector", probes=probes)
    assert scalar == vectored


@pytest.mark.parametrize("refresh", [False, True])
def test_streaming_sweep_matches_scalar(refresh):
    config = _config(prefetchers=False, refresh=refresh)
    addrs = _streaming_sweep(20_000)
    scalar = _run_miss_stream(config, addrs, "scalar")
    vectored = _run_miss_stream(config, addrs, "vector")
    assert scalar == vectored


@pytest.mark.parametrize("replacement,mapping,refresh", [
    ("lru", "row", False),
    ("lru", "xor", True),
    ("srrip", "line", False),
    ("srrip", "xor", True),
    ("random", "row", True),
    ("random", "line", False),
])
def test_mixed_miss_stream_matches_scalar(replacement, mapping, refresh):
    config = _config(prefetchers=False, replacement=replacement,
                     mapping=mapping, refresh=refresh)
    rng = random.Random(hash((replacement, mapping, refresh)) & 0xFFFF)
    addrs = _mixed_miss_stream(rng, System(config), 10_000)
    probes = [rng.choice(addrs) for _ in range(2000)]
    scalar = _run_miss_stream(config, addrs, "scalar",
                              write_chunks=True, probes=probes)
    vectored = _run_miss_stream(config, addrs, "vector",
                                write_chunks=True, probes=probes)
    assert scalar == vectored


def test_miss_spans_with_prefetchers_still_match():
    # Prefetchers make the miss engine ineligible — the batch must
    # detect that and stay on the reference loop, not commit bulk spans.
    config = _config(prefetchers=True)
    addrs = _streaming_sweep(6000)
    scalar = _run_miss_stream(config, addrs, "scalar")
    vectored = _run_miss_stream(config, addrs, "vector")
    assert scalar == vectored


# ----------------------------------------------------------------------
# Dirty-line accounting
# ----------------------------------------------------------------------


def _recount_dirty(cache):
    return sum(sum(1 for d in row if d) for row in cache._dirty)


def test_dirty_line_counter_tracks_ground_truth():
    """``_dirty_lines`` (the O(1) all-clean gate for the bulk miss
    path) must equal a recount of the dirty matrix at every batch
    boundary, through misses, writes, writebacks, and probes."""
    config = _config(prefetchers=False)
    system = System(config)
    hierarchy = system.hierarchy
    rng = random.Random(7)
    addrs = _mixed_miss_stream(rng, system, 6000)
    now = 0
    for start in range(0, len(addrs), 1000):
        chunk = addrs[start:start + 1000]
        is_write = (start // 1000) % 3 == 1
        now = hierarchy.access_batch(0, chunk, now, requestor="recv",
                                     backend="vector", is_write=is_write)
        for cache in [hierarchy.llc] + list(hierarchy.l1) + \
                list(hierarchy.l2):
            assert cache._dirty_lines == _recount_dirty(cache)


# ----------------------------------------------------------------------
# Snapshot round-trips through miss-heavy state
# ----------------------------------------------------------------------


def test_snapshot_roundtrip_mid_conflict_stream():
    config = _config(prefetchers=False)
    addrs = _conflict_replay(System(config), 10_000)
    system = System(config)
    finish = system.hierarchy.access_batch(0, addrs[:5000], 0,
                                           requestor="recv",
                                           backend="vector")
    snap = system.snapshot()
    tails = {}
    for backend in ("scalar", "vector"):
        fresh = System(config)
        fresh.restore(snap)
        tail = fresh.hierarchy.access_batch(0, addrs[5000:], finish,
                                            requestor="recv",
                                            backend=backend)
        tails[backend] = (tail, _full_state(fresh))
    assert tails["scalar"] == tails["vector"]


def test_sanitized_system_runs_miss_stream_identically():
    """A sanitized system carries an observer, so the auto backend must
    quietly run the reference loop — and land on the same state as an
    unsanitized scalar run."""
    config = _config(prefetchers=False)
    addrs = _conflict_replay(System(config), 6000)
    sanitized = System(config, sanitize=True)
    finish_s = sanitized.hierarchy.access_batch(0, addrs, 0,
                                                requestor="recv")
    plain = System(config)
    finish_p = plain.hierarchy.access_batch(0, addrs, 0, requestor="recv",
                                            backend="scalar")
    assert finish_s == finish_p
    assert _full_state(sanitized) == _full_state(plain)
