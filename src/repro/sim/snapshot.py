"""State snapshot/restore for the simulated machine.

A :class:`SystemSnapshot` captures *all* architectural state — cache
contents and replacement metadata, row-buffer/bank state, TLBs,
prefetcher tables, predictor weights, and every RNG — so a machine can be
returned to an earlier state with :meth:`repro.system.System.restore`
instead of being rebuilt.  The pristine-system pool
(:func:`repro.exp.warmstore.pristine_system`) restores each pooled
machine's construction-time snapshot between leases.

Design rules:

- Every stateful component exposes ``snapshot_state()`` returning a plain
  (copied) payload and ``restore_state(payload)`` that copies *again* on
  the way in, so one snapshot supports any number of restores.
- Restores mutate existing structures **in place** where other objects
  alias them (e.g. :class:`~repro.cache.cache.Cache` aliases its SRRIP
  policy's RRPV rows); replacing such lists wholesale would silently
  decouple the aliases.
- A snapshot is only valid for the :class:`~repro.system.System` (or an
  identically configured one) that produced it; restoring across
  configurations raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List


def copy_rows(rows: List[list]) -> List[list]:
    """Shallow-copy a list of flat lists (the tag/valid/RRPV shape)."""
    return [list(row) for row in rows]


def restore_rows(dst: List[list], src: List[list]) -> None:
    """Copy ``src`` rows into ``dst`` rows **in place** (alias-safe)."""
    if len(dst) != len(src):
        raise ValueError(
            f"snapshot shape mismatch: {len(src)} rows vs {len(dst)}"
        )
    for dst_row, src_row in zip(dst, src):
        dst_row[:] = src_row


@dataclass(frozen=True)
class SystemSnapshot:
    """Opaque capture of a :class:`repro.system.System`'s state.

    ``config`` is the producing system's :class:`~repro.config.SystemConfig`
    (used to reject restores onto differently configured machines);
    ``payload`` maps component names to their ``snapshot_state()`` output.
    """

    config: Any
    payload: Dict[str, Any]

    def component(self, name: str) -> Any:
        try:
            return self.payload[name]
        except KeyError:
            raise KeyError(f"snapshot has no component {name!r}") from None
