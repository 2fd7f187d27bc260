"""The prefetchers against reference implementations of their rules.

Each reference keeps the rule as first written (candidates built one by
one); the prefetchers must return the same candidates and leave their
tables in the same state, insertion order included, since that order
decides which entry a full table drops.
"""

import random

import pytest

from repro.cache import IPStridePrefetcher, StreamerPrefetcher


def _reference_ip_stride(table, capacity, degree, pc, addr):
    if pc is None:
        return []
    entry = table.pop(pc, None)
    prefetches = []
    if entry is None:
        table[pc] = (addr, 0, 0)
        while len(table) > capacity:
            del table[next(iter(table))]
    else:
        last_addr, last_stride, confidence = entry
        stride = addr - last_addr
        if stride != 0 and stride == last_stride:
            confidence = min(confidence + 1, 3)
        elif stride != 0:
            confidence = 0
        table[pc] = (addr, stride if stride != 0 else last_stride, confidence)
        if confidence >= 1 and stride != 0:
            prefetches = [addr + stride * (i + 1) for i in range(degree)]
            prefetches = [p for p in prefetches if p >= 0]
    return prefetches


def _reference_streamer(regions, capacity, degree, line_bytes, addr):
    region = addr // StreamerPrefetcher.REGION_BYTES
    line = addr // line_bytes
    entry = regions.pop(region, None)
    prefetches = []
    if entry is None:
        regions[region] = (line, 0)
        while len(regions) > capacity:
            del regions[next(iter(regions))]
    else:
        last_line, direction = entry
        step = line - last_line
        if step == 0:
            regions[region] = (line, direction)
        else:
            new_direction = 1 if step > 0 else -1
            if direction == new_direction:
                prefetches = [(line + new_direction * (i + 1)) * line_bytes
                              for i in range(degree)]
                prefetches = [p for p in prefetches if p >= 0]
            regions[region] = (line, new_direction)
    return prefetches


def _walk(rng, length):
    """Accesses by a few dozen PCs, each mostly striding (both ways, near
    address 0 too), sometimes repeating or jumping."""
    pcs = {}
    for _ in range(length):
        pc = rng.choice([None] + list(range(80)))
        addr, stride = pcs.get(pc, (rng.randrange(1 << 12) * 8,
                                    rng.choice([-192, -64, -8, 8, 64, 128])))
        roll = rng.random()
        if roll < 0.1:
            addr = rng.randrange(1 << 12) * 8
        elif roll < 0.2:
            stride = rng.choice([-64, 64, 512])
        elif roll > 0.3:
            addr = max(0, addr + stride)
        pcs[pc] = (addr, stride)
        yield pc, addr


@pytest.mark.parametrize("seed", range(4))
def test_ip_stride_matches_reference(seed):
    rng = random.Random(seed)
    prefetcher = IPStridePrefetcher(table_entries=64, degree=3)
    table = {}
    for pc, addr in _walk(rng, 5000):
        assert (prefetcher.observe(pc, addr)
                == _reference_ip_stride(table, 64, 3, pc, addr))
        assert list(prefetcher._table.items()) == list(table.items())


@pytest.mark.parametrize("seed", range(4))
def test_streamer_matches_reference(seed):
    rng = random.Random(seed)
    prefetcher = StreamerPrefetcher(tracked_regions=32, degree=3)
    regions = {}
    for pc, addr in _walk(rng, 5000):
        addr = addr * 8 % (1 << 18)  # spread over 64 regions
        assert (prefetcher.observe(pc, addr)
                == _reference_streamer(regions, 32, 3, 64, addr))
        assert list(prefetcher._regions.items()) == list(regions.items())
