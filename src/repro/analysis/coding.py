"""Forward error correction over the covert channel.

The paper measures effective throughput as "successfully leaked bits";
a real attacker instead protects the stream with coding so *usable* bits
survive channel errors.  This module computes the goodput of a channel
protected by a Hamming(7,4) single-error-correcting code, quantifying how
much of a noisy channel's raw bandwidth an attacker actually keeps — the
engineering step between Fig. 8's raw numbers and an exploitable channel.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FecAssessment:
    """Usable-bandwidth accounting for a coded channel."""

    raw_throughput_mbps: float
    channel_error_rate: float
    residual_error_rate: float
    goodput_mbps: float

    def summary(self) -> str:
        return (f"raw {self.raw_throughput_mbps:.2f} Mb/s @ "
                f"{self.channel_error_rate:.2%} errors -> Hamming(7,4) "
                f"goodput {self.goodput_mbps:.2f} Mb/s @ "
                f"{self.residual_error_rate:.3%} residual")


def fec_assessment(raw_throughput_mbps: float,
                   channel_error_rate: float) -> FecAssessment:
    """Goodput of the channel under Hamming(7,4) protection.

    A 7-bit block decodes wrongly when it suffers 2+ errors; the rate 4/7
    overhead buys correction of every single-error block.
    """
    if raw_throughput_mbps < 0:
        raise ValueError("throughput must be >= 0")
    if not 0.0 <= channel_error_rate <= 1.0:
        raise ValueError("error rate must be within [0, 1]")
    p = channel_error_rate
    block_ok = (1 - p) ** 7 + 7 * p * (1 - p) ** 6
    residual_block_error = 1 - block_ok
    # Approximate residual data-bit error: a failed block garbles ~half
    # its 4 data bits.
    residual_bit_error = residual_block_error * 0.5
    goodput = raw_throughput_mbps * (4 / 7) * block_ok
    return FecAssessment(raw_throughput_mbps=raw_throughput_mbps,
                         channel_error_rate=p,
                         residual_error_rate=residual_bit_error,
                         goodput_mbps=goodput)
