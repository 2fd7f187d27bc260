"""Memory-controller request scheduling: FCFS vs FR-FCFS.

The main request path (:class:`repro.dram.controller.MemoryController`)
models banks as timestamped resources with in-order service per bank —
sufficient for the row-buffer channels, whose requestors self-serialize.
This module adds the *scheduler* dimension for workload studies: given a
request trace, it computes per-request service under

- **FCFS** — oldest request first, and
- **FR-FCFS** [108] — row-hit-first, then oldest: the policy that makes
  the open-row organization pay, and the very reordering that lets one
  process's row state modulate another's latency (the §3.1 channel, and
  the memory-performance-attack surface of [77]).

A shared data bus (one burst per request) is modeled so bank-level
parallelism saturates realistically.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.dram.address import DRAMGeometry
from repro.dram.bank import AccessKind
from repro.dram.timings import DRAMTimings


class SchedulingPolicy(enum.Enum):
    FCFS = "fcfs"
    FRFCFS = "frfcfs"


@dataclass(frozen=True)
class Request:
    """One DRAM request presented to the scheduler."""

    arrival: int
    bank: int
    row: int
    is_write: bool = False
    requestor: str = "cpu"

    def __post_init__(self) -> None:
        if self.arrival < 0 or self.bank < 0 or self.row < 0:
            raise ValueError("arrival, bank, and row must be >= 0")


@dataclass(frozen=True)
class ScheduledRequest:
    """Scheduler outcome for one request."""

    request: Request
    service_start: int
    finish: int
    kind: AccessKind

    @property
    def latency(self) -> int:
        return self.finish - self.request.arrival

    @property
    def queue_delay(self) -> int:
        return self.service_start - self.request.arrival


@dataclass
class ScheduleStats:
    """Aggregate outcome of scheduling a trace."""

    scheduled: List[ScheduledRequest]

    @property
    def count(self) -> int:
        return len(self.scheduled)

    @property
    def mean_latency(self) -> float:
        if not self.scheduled:
            return 0.0
        return sum(s.latency for s in self.scheduled) / self.count

    @property
    def row_hit_rate(self) -> float:
        if not self.scheduled:
            return 0.0
        hits = sum(1 for s in self.scheduled if s.kind is AccessKind.HIT)
        return hits / self.count

    @property
    def makespan(self) -> int:
        if not self.scheduled:
            return 0
        return max(s.finish for s in self.scheduled)


class RequestScheduler:
    """Cycle-stepped scheduler over per-bank queues and a shared bus.

    ``window`` bounds how deep into the queue FR-FCFS may look for a row
    hit (real controllers have finite scheduling windows).
    """

    BUS_BURST_CYCLES = 4  # tBL at DDR4-2400 behind a 2.6 GHz clock

    def __init__(self, geometry: DRAMGeometry, timings: DRAMTimings,
                 policy: SchedulingPolicy = SchedulingPolicy.FRFCFS,
                 window: int = 16) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.geometry = geometry
        self.timings = timings
        self.policy = policy
        self.window = window

    def schedule(self, requests: Sequence[Request]) -> ScheduleStats:
        """Service the whole trace; returns per-request outcomes."""
        for request in requests:
            if request.bank >= self.geometry.num_banks:
                raise ValueError(f"bank {request.bank} out of range")
        arrival = attrgetter("arrival")
        # Sorted by arrival and only ever popped from, so the requests
        # that have arrived by ``now`` are always a prefix of ``pending``.
        pending: List[Request] = sorted(requests, key=arrival)
        open_rows: Dict[int, Optional[int]] = {}
        bank_ready: Dict[int, int] = {}
        bus_ready = 0
        now = 0
        out: List[ScheduledRequest] = []
        t = self.timings
        while pending:
            arrived = bisect_right(pending, now, key=arrival)
            if not arrived:
                now = pending[0].arrival
                continue
            candidates = pending[:min(arrived, self.window)]
            index = self._pick(candidates, open_rows, bank_ready, now)
            if index is None:
                # every candidate's bank is busy: advance to the earliest
                # bank-ready or next-arrival instant.
                horizon = [bank_ready.get(r.bank, 0) for r in candidates]
                if arrived < len(pending):
                    horizon.append(pending[arrived].arrival)
                now = min(x for x in horizon if x > now)
                continue
            chosen = pending.pop(index)
            start = max(now, chosen.arrival, bank_ready.get(chosen.bank, 0))
            current = open_rows.get(chosen.bank)
            if current is None:
                kind = AccessKind.EMPTY
                latency = t.empty_cycles
            elif current == chosen.row:
                kind = AccessKind.HIT
                latency = t.hit_cycles
            else:
                kind = AccessKind.CONFLICT
                latency = t.conflict_cycles
            data_time = max(start + latency, bus_ready + self.BUS_BURST_CYCLES)
            bus_ready = data_time
            open_rows[chosen.bank] = chosen.row
            bank_ready[chosen.bank] = data_time
            out.append(ScheduledRequest(request=chosen, service_start=start,
                                        finish=data_time, kind=kind))
            now = max(now, start)
        out.sort(key=lambda s: (s.request.arrival, s.service_start))
        return ScheduleStats(scheduled=out)

    def _pick(self, candidates: List[Request],
              open_rows: Dict[int, Optional[int]],
              bank_ready: Dict[int, int], now: int) -> Optional[int]:
        """Index in ``candidates`` of the request to serve now, or ``None``
        when every candidate's bank is busy."""
        ready = [i for i, r in enumerate(candidates)
                 if bank_ready.get(r.bank, 0) <= now]
        if not ready:
            return None
        if self.policy is SchedulingPolicy.FRFCFS:
            for index in ready:  # arrival order: first-ready row hit
                request = candidates[index]
                if open_rows.get(request.bank) == request.row:
                    return index
        return ready[0]  # oldest


def requests_from_refs(refs, geometry: DRAMGeometry, mapping,
                       arrival_gap: int = 20,
                       requestor: str = "cpu") -> List[Request]:
    """Turn a :class:`MemoryRef` stream into scheduler requests arriving
    at a fixed cadence (a bandwidth-bound core's miss stream)."""
    requests: List[Request] = []
    capacity = geometry.capacity_bytes
    for i, ref in enumerate(refs):
        loc = mapping.decode(ref.addr % capacity)
        requests.append(Request(arrival=i * arrival_gap, bank=loc.bank,
                                row=loc.row, is_write=ref.is_write,
                                requestor=requestor))
    return requests
