"""Covert-channel framework: encoding, measurement, and reporting.

Common machinery shared by all seven §5 channels: message generation,
threshold calibration against the row-buffer latency distributions,
result accounting (error rate and the paper's effective-throughput metric
— §5.1: *"We measure the throughput of each attack only based on the
successfully leaked data"*), and the cost model for user-space
synchronization (POSIX semaphores/barriers, §4.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.system import System

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.quality import ChannelQuality

#: Decode threshold from Fig. 7: latencies above => row-buffer conflict
#: => logic-1; below => hit => logic-0.
DEFAULT_THRESHOLD_CYCLES = 150

#: POSIX semaphore post/wait cost (shared-memory fast path + occasional
#: futex).
SEM_OP_CYCLES = 80

#: Arrival/departure cost of a pthread-style barrier.
BARRIER_OP_CYCLES = 120

#: Per-bit receiver-side decode cost (compare + store).
DECODE_CYCLES = 8

#: Loop bookkeeping per transmitted bit (index math, branch).
LOOP_OVERHEAD_CYCLES = 6


def random_bits(count: int, seed: int = 0) -> List[int]:
    """A reproducible random message of ``count`` bits."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(count)]


@dataclass
class ChannelResult:
    """Outcome of one covert-channel transmission.

    ``cycles`` is wall-clock virtual time from the start of transmission to
    the last decoded bit.  ``raw_throughput_mbps`` counts every transmitted
    bit; ``throughput_mbps`` counts only correctly received bits — the
    paper's metric.
    """

    attack: str
    sent: List[int]
    received: List[int]
    cycles: int
    cpu_hz: float
    probe_latencies: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.sent) != len(self.received):
            raise ValueError("sent and received lengths differ")
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")

    @property
    def bits(self) -> int:
        return len(self.sent)

    @property
    def errors(self) -> int:
        return sum(1 for s, r in zip(self.sent, self.received) if s != r)

    @property
    def correct_bits(self) -> int:
        return self.bits - self.errors

    @property
    def error_rate(self) -> float:
        return self.errors / self.bits if self.bits else 0.0

    def _mbps(self, bits: int) -> float:
        if self.cycles <= 0:
            return 0.0
        return bits * self.cpu_hz / self.cycles / 1e6

    @property
    def raw_throughput_mbps(self) -> float:
        return self._mbps(self.bits)

    @property
    def throughput_mbps(self) -> float:
        """Effective throughput over successfully leaked bits only (§5.1)."""
        return self._mbps(self.correct_bits)

    @property
    def cycles_per_bit(self) -> float:
        return self.cycles / self.bits if self.bits else 0.0

    def summary(self) -> str:
        return (f"{self.attack}: {self.bits} bits in {self.cycles} cycles "
                f"-> {self.throughput_mbps:.2f} Mb/s "
                f"(raw {self.raw_throughput_mbps:.2f}), "
                f"error rate {self.error_rate:.2%}")

    def quality(self, threshold_cycles: int = DEFAULT_THRESHOLD_CYCLES
                ) -> "ChannelQuality":
        """Channel-quality analytics for this transmission: BER with a
        Wilson confidence interval, a mutual-information capacity
        estimate, the TVLA Welch-t leakage score, and eye-diagram
        summaries (see :mod:`repro.analysis.quality`)."""
        from repro.analysis.quality import channel_quality

        return channel_quality(self.sent, self.received,
                               self.probe_latencies, threshold_cycles,
                               cycles=self.cycles, cpu_hz=self.cpu_hz)


class CovertChannel:
    """Base class for the §5 covert channels.

    Subclasses implement :meth:`transmit`; the base provides message
    generation, threshold handling, and decode helpers.
    """

    name = "covert-channel"

    def __init__(self, system: System,
                 threshold_cycles: int = DEFAULT_THRESHOLD_CYCLES) -> None:
        if threshold_cycles <= 0:
            raise ValueError("threshold must be positive")
        self.system = system
        self.threshold_cycles = threshold_cycles

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def transmit(self, bits: Sequence[int]) -> ChannelResult:
        """Send ``bits`` from the sender to the receiver; returns the
        decoded result."""
        raise NotImplementedError

    def transmit_random(self, bits: int, seed: int = 0) -> ChannelResult:
        """Send a reproducible random message of ``bits`` bits."""
        return self.transmit(random_bits(bits, seed))

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def decode(self, latency: int) -> int:
        """Latency above the threshold => interference => logic-1."""
        return 1 if latency > self.threshold_cycles else 0

    @staticmethod
    def check_bits(bits: Sequence[int]) -> List[int]:
        out = []
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"message bits must be 0/1, got {bit!r}")
            out.append(int(bit))
        return out

    def make_result(self, sent: Sequence[int], received: Sequence[int],
                    cycles: int,
                    probe_latencies: Optional[List[int]] = None) -> ChannelResult:
        return ChannelResult(attack=self.name, sent=list(sent),
                             received=list(received), cycles=cycles,
                             cpu_hz=self.system.cpu_hz,
                             probe_latencies=probe_latencies or [])
