"""Observability and sanitizer subsystem (``repro.obs``).

Three layers:

- :class:`Observer` / :class:`MultiObserver` — the hook protocol the
  instrumented components (controller, cache hierarchy, scheduler, PEI
  engine) call into; ``None`` means "off" and costs one branch.
- :class:`Tracer` — structured cycle-stamped event capture with
  Chrome-trace JSON and per-requestor metrics export.
- :class:`Sanitizer` — per-event timing-invariant checks
  (``REPRO_SANITIZE=1`` or ``System(sanitize=True)``).

A process-global observer can be installed with :func:`install` so
components built without an explicit ``observer=`` argument (schedulers
inside attack primitives, systems built deep inside sweep workers) still
report events — that is how traces survive ``exp/runner``'s process-pool
fan-out: each worker installs a fresh :class:`Tracer` around its point.

This package deliberately imports nothing from the simulation core so the
core modules can import it without cycles.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.core import MultiObserver, Observer
from repro.obs.sanitizer import Sanitizer, SanitizerError
from repro.obs.trace import TraceEvent, Tracer, summarize_chrome_trace

__all__ = [
    "Observer",
    "MultiObserver",
    "Tracer",
    "TraceEvent",
    "Sanitizer",
    "SanitizerError",
    "install",
    "uninstall",
    "current_observer",
    "sanitize_requested",
    "summarize_chrome_trace",
]

_active: Optional[Observer] = None


def install(observer: Observer) -> Observer:
    """Make ``observer`` the process-global default observer.

    Components created afterwards (without an explicit ``observer=``)
    pick it up; returns the observer for chaining.
    """
    global _active
    _active = observer
    return observer


def uninstall() -> None:
    """Remove the process-global observer."""
    global _active
    _active = None


def current_observer() -> Optional[Observer]:
    """The installed process-global observer, or ``None``."""
    return _active


def sanitize_requested() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() \
        not in ("", "0", "false", "no", "off")
