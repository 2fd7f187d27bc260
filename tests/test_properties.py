"""Property-based tests (hypothesis) on core invariants.

These pin down the simulation's correctness conditions: virtual time never
runs backward, banks never double-book, caches never over-fill, inclusive
levels stay inclusive, constant-time stays constant, and the covert
channels decode arbitrary messages exactly on a quiet system.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import System, SystemConfig
from repro.attacks import ImpactPnmChannel, ImpactPumChannel
from repro.cache import Cache, CacheConfig, HierarchyConfig
from repro.dram import (
    Bank,
    DRAMGeometry,
    DRAMTimings,
    MemoryController,
    MemoryControllerConfig,
)
from repro.sim import Barrier, Scheduler, Semaphore
from tests.helpers import resident_lines, set_index_of


def small_config():
    return SystemConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        hierarchy=HierarchyConfig(num_cores=2, llc_size_mb=2.0,
                                  prefetchers_enabled=False))


# ---------------------------------------------------------------------------
# Scheduler invariants
# ---------------------------------------------------------------------------

@given(advances=st.lists(st.lists(st.integers(min_value=0, max_value=500),
                                  min_size=1, max_size=6),
                         min_size=1, max_size=5))
@settings(max_examples=40)
def test_scheduler_time_monotone_and_all_finish(advances):
    sched = Scheduler()
    observed = {}

    def body(ctx, steps):
        times = [ctx.now]
        for step in steps:
            ctx.advance(step)
            times.append(ctx.now)
            yield None
        observed[ctx.name] = times

    threads = [sched.spawn(body, steps, name=f"t{i}")
               for i, steps in enumerate(advances)]
    sched.run()
    assert all(t.finished for t in threads)
    for times in observed.values():
        assert times == sorted(times)


@given(producers=st.integers(min_value=1, max_value=4),
       items=st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_semaphore_token_conservation(producers, items):
    """Consumers consume exactly what producers release — never more."""
    sched = Scheduler()
    sem = Semaphore()
    consumed = []

    def producer(ctx):
        for _ in range(items):
            ctx.advance(7)
            yield sem.release()

    def consumer(ctx):
        for _ in range(items * producers):
            yield sem.acquire()
            consumed.append(ctx.now)

    for i in range(producers):
        sched.spawn(producer, name=f"p{i}")
    sched.spawn(consumer, name="c")
    sched.run()
    assert len(consumed) == items * producers
    assert sem.value == 0


@given(parties=st.integers(min_value=2, max_value=5),
       rounds=st.integers(min_value=1, max_value=4))
@settings(max_examples=25)
def test_barrier_rounds_are_aligned(parties, rounds):
    sched = Scheduler()
    bar = Barrier(parties=parties)
    exits = []

    def body(ctx, delay):
        for r in range(rounds):
            ctx.advance(delay)
            yield bar.wait()
            exits.append((r, ctx.now))

    for i in range(parties):
        sched.spawn(body, 10 * (i + 1), name=f"b{i}")
    sched.run()
    for r in range(rounds):
        times = {t for rr, t in exits if rr == r}
        assert len(times) == 1  # everyone leaves round r at one instant


# ---------------------------------------------------------------------------
# DRAM bank invariants
# ---------------------------------------------------------------------------

bank_ops = st.lists(
    st.tuples(st.sampled_from(["access", "activate", "precharge", "rowclone"]),
              st.integers(min_value=0, max_value=63),   # row
              st.integers(min_value=0, max_value=200)),  # inter-op gap
    min_size=1, max_size=40)


@given(ops=bank_ops)
@settings(max_examples=50)
def test_bank_never_time_travels(ops):
    """Busy time is nondecreasing; operations never finish before they
    were issued; an access leaves its row open."""
    bank = Bank(index=0, timings=DRAMTimings())
    now = 0
    last_busy = 0
    for op, row, gap in ops:
        now += gap
        if op == "access":
            result = bank.access(row, now)
            assert result.finish >= now
            assert result.latency >= 0
            assert bank.open_row == row
        elif op == "activate":
            result = bank.activate(row, now)
            assert result.finish >= now
            assert bank.open_row == row
        elif op == "precharge":
            finish = bank.precharge(now)
            assert finish >= now
            assert bank.open_row is None
        else:
            result = bank.rowclone_fpm(row, (row + 1) % 64, now)
            assert result.finish >= now
        assert bank.busy_until >= last_busy
        last_busy = bank.busy_until


@given(rows=st.lists(st.integers(min_value=0, max_value=31), min_size=2,
                     max_size=30))
@settings(max_examples=50)
def test_bank_classify_agrees_with_access(rows):
    """classify() at the service instant predicts the access outcome."""
    bank = Bank(index=0, timings=DRAMTimings())
    now = 0
    for row in rows:
        now = bank.busy_until + 10
        predicted = bank.classify(row, now)
        result = bank.access(row, now)
        assert result.kind is predicted


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(st.sampled_from(["access", "fill", "invalidate"]),
              st.integers(min_value=0, max_value=255)),  # line index
    min_size=1, max_size=80)


@given(ops=cache_ops)
@settings(max_examples=50)
def test_cache_sets_never_overfill(ops):
    cache = Cache(CacheConfig(name="t", size_bytes=2048, ways=2,
                              latency_cycles=1))
    for op, line in ops:
        addr = line * 64
        if op == "access":
            cache.access(addr)
        elif op == "fill":
            cache.fill(addr)
        else:
            cache.invalidate(addr)
    for set_index in range(cache.config.num_sets):
        resident = resident_lines(cache, set_index)
        assert len(resident) <= cache.config.ways
        assert len(set(resident)) == len(resident)
        for line_addr in resident:
            assert set_index_of(cache, line_addr) == set_index
    assert cache.stats.accesses == sum(1 for op, _ in ops if op == "access")


@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 22),
                      min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_hierarchy_inclusion_invariant(addrs):
    """Inclusive LLC: any line resident in an L1 or L2 is also in the LLC."""
    from repro.cache import CacheHierarchy
    controller = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096)))
    h = CacheHierarchy(HierarchyConfig(num_cores=2, llc_size_mb=1.0 / 16,
                                       prefetchers_enabled=False), controller)
    for i, addr in enumerate(addrs):
        h.access(core=i % 2, addr=addr, issued=i * 500)
    for upper_group in (h.l1, h.l2):
        for cache in upper_group:
            for set_index in range(cache.config.num_sets):
                for line_addr in resident_lines(cache, set_index):
                    assert h.llc.probe(line_addr), hex(line_addr)


# ---------------------------------------------------------------------------
# Controller invariants
# ---------------------------------------------------------------------------

@given(pattern=st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                                  st.integers(min_value=0, max_value=63)),
                        min_size=1, max_size=30))
@settings(max_examples=30)
def test_constant_time_is_constant(pattern):
    """CTD: spaced accesses (no queueing) always take the same latency,
    whatever the bank/row pattern."""
    controller = MemoryController(MemoryControllerConfig(
        geometry=DRAMGeometry(ranks=1, banks_per_rank=16, rows_per_bank=4096),
        constant_time=True))
    latencies = set()
    now = 0
    for bank, row in pattern:
        result = controller.access(controller.address_of(bank, row), now)
        latencies.add(result.latency)
        now = result.finish + 500  # drain all queues
    assert len(latencies) == 1


# ---------------------------------------------------------------------------
# Channel round-trips
# ---------------------------------------------------------------------------

@given(message=st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                        max_size=48))
@settings(max_examples=10, deadline=None)
def test_impact_pnm_decodes_any_message(message):
    channel = ImpactPnmChannel(System(small_config()))
    result = channel.transmit(message)
    assert result.received == message


@given(message=st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                        max_size=48))
@settings(max_examples=10, deadline=None)
def test_impact_pum_decodes_any_message(message):
    channel = ImpactPumChannel(System(small_config()))
    result = channel.transmit(message)
    assert result.received == message
