"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

The cache hierarchy the sweeps already use — result cache → pooled
pristine systems on a persistent fork-server
:class:`~repro.exp.runner.WorkerPool` — promoted into a long-running
multi-tenant service.  Many concurrent clients submit experiment sweeps
over a stdlib JSON-lines TCP protocol; the scheduler fair-shares the
pool between them, deduplicates identical in-flight requests by the same
content-hash keys the caches use, and streams per-point progress plus
live metrics back to each client.

Layers:

- :mod:`repro.serve.protocol` — wire format, experiment registry,
  point-identity hashing.
- :mod:`repro.serve.scheduler` — fair-share + priority queue, dedup,
  pool dispatch with worker-death retry and inline fallback.
- :mod:`repro.serve.server` — the asyncio TCP daemon (``repro serve``).
- :mod:`repro.serve.client` — blocking client library (``repro submit``).
"""

from repro.serve.client import JobResult, ServeClient, ServeError
from repro.serve.protocol import (ProtocolError, build_points,
                                  experiment_registry, point_key)
from repro.serve.scheduler import Job, ServeScheduler
from repro.serve.server import ServeServer, run_server

__all__ = [
    "Job",
    "JobResult",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeScheduler",
    "ServeServer",
    "build_points",
    "experiment_registry",
    "point_key",
    "run_server",
]
