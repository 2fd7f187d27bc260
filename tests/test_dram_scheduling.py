"""Tests for the FCFS / FR-FCFS request scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DRAMGeometry, DRAMTimings
from repro.dram.bank import AccessKind
from repro.dram.scheduling import (
    Request,
    RequestScheduler,
    ScheduledRequest,
    SchedulingPolicy,
    requests_from_refs,
)

GEOM = DRAMGeometry(ranks=1, banks_per_rank=8, rows_per_bank=1024)
T = DRAMTimings()


def make_scheduler(policy=SchedulingPolicy.FRFCFS, window=16):
    return RequestScheduler(GEOM, T, policy=policy, window=window)


def test_single_request_latency():
    stats = make_scheduler().schedule([Request(arrival=0, bank=0, row=5)])
    assert stats.count == 1
    only = stats.scheduled[0]
    assert only.kind is AccessKind.EMPTY
    assert only.latency == T.empty_cycles


def test_same_row_requests_become_hits():
    requests = [Request(arrival=i * 10, bank=0, row=5) for i in range(4)]
    stats = make_scheduler().schedule(requests)
    kinds = [s.kind for s in stats.scheduled]
    assert kinds[0] is AccessKind.EMPTY
    assert all(k is AccessKind.HIT for k in kinds[1:])


def test_frfcfs_prioritizes_row_hits():
    """A young row-hit request jumps an older row-conflict request."""
    requests = [
        Request(arrival=0, bank=0, row=1),    # opens row 1
        Request(arrival=1, bank=0, row=2),    # conflict (older)
        Request(arrival=2, bank=0, row=1),    # hit (younger)
    ]
    stats = make_scheduler().schedule(requests)
    by_row = {s.request.row: s for s in stats.scheduled
              if s.request.arrival > 0}
    assert by_row[1].service_start < by_row[2].service_start
    assert by_row[1].kind is AccessKind.HIT


def test_fcfs_preserves_arrival_order():
    requests = [
        Request(arrival=0, bank=0, row=1),
        Request(arrival=1, bank=0, row=2),
        Request(arrival=2, bank=0, row=1),
    ]
    stats = make_scheduler(SchedulingPolicy.FCFS).schedule(requests)
    starts = [s.service_start for s in sorted(stats.scheduled,
                                              key=lambda s: s.request.arrival)]
    assert starts == sorted(starts)
    # Without reordering, the row-1 revisit is a conflict.
    last = max(stats.scheduled, key=lambda s: s.request.arrival)
    assert last.kind is AccessKind.CONFLICT


def test_frfcfs_beats_fcfs_on_interleaved_rows():
    """The FR-FCFS win: ping-ponging rows from two requestors schedule
    into row-hit runs."""
    requests = []
    for i in range(32):
        requests.append(Request(arrival=i * 8, bank=0, row=i % 2,
                                requestor=f"p{i % 2}"))
    frfcfs = make_scheduler(SchedulingPolicy.FRFCFS).schedule(requests)
    fcfs = make_scheduler(SchedulingPolicy.FCFS).schedule(requests)
    assert frfcfs.row_hit_rate > fcfs.row_hit_rate
    assert frfcfs.makespan < fcfs.makespan


def test_frfcfs_reordering_leaks_row_state():
    """The security flip side: a victim's open row changes how long the
    attacker's request queues — observable interference [77]."""
    base = [Request(arrival=0, bank=0, row=1, requestor="victim"),
            Request(arrival=1, bank=0, row=1, requestor="victim"),
            Request(arrival=2, bank=0, row=1, requestor="victim")]
    probe_same = base + [Request(arrival=3, bank=0, row=1,
                                 requestor="attacker")]
    probe_other = base + [Request(arrival=3, bank=0, row=9,
                                  requestor="attacker")]

    def attacker_latency(requests):
        (latency,) = [s.latency for s in make_scheduler().schedule(requests)
                      .scheduled if s.request.requestor == "attacker"]
        return latency

    same = attacker_latency(probe_same)
    other = attacker_latency(probe_other)
    assert other > same  # latency reveals whether rows match


def test_banks_overlap_but_bus_serializes():
    requests = [Request(arrival=0, bank=b, row=0) for b in range(8)]
    stats = make_scheduler().schedule(requests)
    finishes = sorted(s.finish for s in stats.scheduled)
    # Bank operations overlap: total << 8 serial accesses...
    assert finishes[-1] < 8 * T.empty_cycles
    # ...but data bursts are spaced by the bus.
    for a, b in zip(finishes, finishes[1:]):
        assert b - a >= RequestScheduler.BUS_BURST_CYCLES


def test_window_bounds_reordering():
    """A row hit beyond the scheduling window cannot be promoted."""
    requests = [Request(arrival=0, bank=0, row=1)]
    requests += [Request(arrival=1 + i, bank=0, row=2 + i) for i in range(4)]
    requests.append(Request(arrival=10, bank=0, row=1))  # hit, far back
    narrow = RequestScheduler(GEOM, T, window=1).schedule(requests)
    wide = RequestScheduler(GEOM, T, window=16).schedule(requests)
    assert wide.row_hit_rate >= narrow.row_hit_rate


def test_requests_from_refs_conversion():
    from repro.dram import make_mapping
    from repro.workloads.kernels import MemoryRef
    refs = [MemoryRef(addr=i * 64, is_write=False, pc=0, compute_cycles=1)
            for i in range(10)]
    mapping = make_mapping("row", GEOM)
    requests = requests_from_refs(refs, GEOM, mapping, arrival_gap=5)
    assert len(requests) == 10
    assert requests[3].arrival == 15
    assert all(0 <= r.bank < GEOM.num_banks for r in requests)


def test_validation():
    with pytest.raises(ValueError):
        Request(arrival=-1, bank=0, row=0)
    with pytest.raises(ValueError):
        RequestScheduler(GEOM, T, window=0)
    with pytest.raises(ValueError):
        make_scheduler().schedule([Request(arrival=0, bank=99, row=0)])


def test_empty_trace():
    stats = make_scheduler().schedule([])
    assert stats.count == 0
    assert stats.mean_latency == 0.0
    assert stats.makespan == 0


def reference_schedule(scheduler, requests):
    """The scheduler's original loop, quadratic in trace length: each
    step rebuilds the arrived list, scans every pending request for the
    next arrival, and removes the chosen request by equality."""
    pending = sorted(requests, key=lambda r: r.arrival)
    open_rows, bank_ready = {}, {}
    bus_ready = now = 0
    out = []
    t = scheduler.timings
    while pending:
        arrived = [r for r in pending if r.arrival <= now]
        if not arrived:
            now = pending[0].arrival
            continue
        candidates = arrived[:scheduler.window]
        ready = [r for r in candidates if bank_ready.get(r.bank, 0) <= now]
        chosen = ready[0] if ready else None
        if ready and scheduler.policy is SchedulingPolicy.FRFCFS:
            chosen = next((r for r in ready
                           if open_rows.get(r.bank) == r.row), ready[0])
        if chosen is None:
            horizon = [bank_ready.get(r.bank, 0) for r in candidates]
            later = [r.arrival for r in pending if r.arrival > now]
            now = min(x for x in (horizon + later) if x > now)
            continue
        pending.remove(chosen)
        start = max(now, chosen.arrival, bank_ready.get(chosen.bank, 0))
        current = open_rows.get(chosen.bank)
        if current is None:
            kind, latency = AccessKind.EMPTY, t.empty_cycles
        elif current == chosen.row:
            kind, latency = AccessKind.HIT, t.hit_cycles
        else:
            kind, latency = AccessKind.CONFLICT, t.conflict_cycles
        data_time = max(start + latency,
                        bus_ready + RequestScheduler.BUS_BURST_CYCLES)
        bus_ready = data_time
        open_rows[chosen.bank] = chosen.row
        bank_ready[chosen.bank] = data_time
        out.append(ScheduledRequest(request=chosen, service_start=start,
                                    finish=data_time, kind=kind))
        now = max(now, start)
    out.sort(key=lambda s: (s.request.arrival, s.service_start))
    return out


@st.composite
def traces(draw):
    """Short traces over few banks, rows and arrival instants, so equal
    arrivals, row hits and busy banks are common, and arrivals spread
    past a few services, so banks free up between them; some requests
    repeat exactly."""
    request = st.builds(Request,
                        arrival=st.integers(0, 50).map(lambda k: 8 * k),
                        bank=st.integers(0, 3), row=st.integers(0, 3),
                        is_write=st.booleans(),
                        requestor=st.sampled_from(["a", "b"]))
    trace = draw(st.lists(request, max_size=30))
    if trace:
        trace += draw(st.lists(st.sampled_from(trace), max_size=8))
    return draw(st.permutations(trace))


@pytest.mark.parametrize("window", [1, 2, 4, 16])
@pytest.mark.parametrize("policy", list(SchedulingPolicy))
@settings(max_examples=60, deadline=None)
@given(trace=traces())
def test_schedule_matches_reference_loop(policy, window, trace):
    scheduler = RequestScheduler(GEOM, T, policy=policy, window=window)
    assert (scheduler.schedule(trace).scheduled
            == reference_schedule(scheduler, trace))
