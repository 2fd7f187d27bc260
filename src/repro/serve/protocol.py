"""Wire protocol for ``repro serve``: newline-delimited JSON over TCP.

Every message — request or event — is one JSON object per line, UTF-8
encoded.  The transport is a plain stream socket, so the whole protocol
is stdlib (``asyncio`` server side, ``socket`` client side): no runtime
dependencies, and any language can speak it with a JSON library and
``readline``.

Requests (client -> server)::

    {"op": "submit", "experiment": "fig8", "points": [{"llc_mb": 8}, ...],
     "priority": 0, "id": "my-tag"}          # or "fn": "pkg.mod:callable"
    {"op": "status"}
    {"op": "metrics"}
    {"op": "cancel", "job_id": "job-3"}
    {"op": "shutdown"}

Events (server -> client, streamed)::

    {"event": "accepted", "job_id": "job-3", "id": "my-tag", "points": 4,
     "run_id": "run-1a2b..."}
    {"event": "point", "job_id": "job-3", "index": 1,
     "source": "executed|cache|dedup|inline", "payload": {...},
     "elapsed_s": 1.2, "span_id": "span-3c4d..."}
    {"event": "done", "job_id": "job-3", "ok": true, "results": [...],
     "sources": [...], "warm_hits": 3, "warm_misses": 1, "elapsed_s": 4.1,
     "run_id": "run-1a2b..."}
    {"event": "metrics", "payload": {...}}   # registry snapshot + stats
    {"event": "status", "payload": {...}}
    {"event": "error", "message": "...", "id": "my-tag"}

``run_id``/``span_id`` are the causal telemetry IDs from
:mod:`repro.obs.telemetry`: each job gets a ``run_id``, each
deduplicated execution a ``span_id`` (additive fields — protocol
revision unchanged).  When the daemon runs with a telemetry directory,
they join the client's streamed events to the daemon's NDJSON event log
and the per-point trace/metrics artifacts.  The ``metrics`` payload's
``stats.workers`` section carries the live fleet-health snapshot
(per-worker throughput, lease ages, slowest in flight) that ``repro top``
renders.

Experiments are named server-side: a submit either references one of the
registered figure-point functions (:data:`EXPERIMENTS`) or — for tests,
benches, and user extensions — a ``"module:attribute"`` spec resolved by
the server process.  The daemon therefore runs arbitrary *locally
importable* code on request, exactly like ``run_sweep`` does: it is a
lab-bench service for trusted clients on a trusted host, not an
internet-facing API.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.exp.sweep import SweepPoint

#: Protocol revision, echoed in ``accepted`` events so clients can detect
#: a daemon speaking a different dialect.
PROTOCOL_VERSION = 1


def encode(message: Mapping[str, Any]) -> bytes:
    """One wire line for ``message`` (compact JSON + newline)."""
    return (json.dumps(message, separators=(",", ":"), default=str)
            + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


class ProtocolError(ValueError):
    """A malformed request or event line."""


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

def experiment_registry() -> Dict[str, Callable[..., Any]]:
    """Named sweep-point functions clients may submit against.

    Resolved lazily: importing the figure functions pulls in the whole
    simulator, which the protocol module itself must not require."""
    from repro.exp import figures

    return {
        "sec33": figures.sec33_point,
        "fig8": figures.fig8_point,
        "fig8-quality": figures.fig8_quality_point,
        "fig10": figures.fig10_point,
        "fig11": figures.fig11_point,
        "covert": figures.covert_point,
        "sidechannel": figures.sidechannel_point,
        "defense-security": figures.defense_security_point,
        "streamline-bound": figures.streamline_bound_point,
    }


def resolve_fn(spec: str) -> Callable[..., Any]:
    """A module-level callable from a ``"module:attribute"`` spec."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ProtocolError(f"fn spec {spec!r} is not 'module:attribute'")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ProtocolError(f"cannot import {module_name!r}: {exc}") from exc
    fn = module
    for part in attr.split("."):
        fn = getattr(fn, part, None)
        if fn is None:
            raise ProtocolError(f"{module_name!r} has no attribute {attr!r}")
    if not callable(fn):
        raise ProtocolError(f"{spec!r} is not callable")
    return fn


def build_points(experiment: Optional[str], fn_spec: Optional[str],
                 point_params: Sequence[Mapping[str, Any]]) -> List[SweepPoint]:
    """Materialize a submit request's points.

    ``experiment`` names a registered figure function; ``fn_spec`` is the
    escape hatch for arbitrary module-level callables.  Exactly one must
    be given, and every element of ``point_params`` must be a JSON object
    of keyword arguments."""
    if bool(experiment) == bool(fn_spec):
        raise ProtocolError(
            "submit needs exactly one of 'experiment' or 'fn'")
    if experiment:
        registry = experiment_registry()
        fn = registry.get(experiment)
        if fn is None:
            raise ProtocolError(
                f"unknown experiment {experiment!r} "
                f"(known: {', '.join(sorted(registry))})")
        namespace = experiment
    else:
        fn = resolve_fn(fn_spec)  # type: ignore[arg-type]
        namespace = fn_spec  # type: ignore[assignment]
    if not point_params:
        raise ProtocolError("submit carries no points")
    points: List[SweepPoint] = []
    for params in point_params:
        if not isinstance(params, Mapping):
            raise ProtocolError(
                f"each point must be a JSON object of kwargs, got "
                f"{type(params).__name__}")
        points.append(SweepPoint(experiment=namespace, fn=fn,
                                 params=dict(params)))
    return points


def point_key(point: SweepPoint, version: Optional[str] = None) -> str:
    """Content-hash identity of one point for in-flight deduplication.

    Same material as :meth:`repro.exp.cache.ResultCache.key` — experiment
    name, parameters, and the source-tree code version — plus the target
    function's import path, so two callables sharing an experiment label
    can never collide.  Two clients submitting the same point while one
    execution is in flight therefore share that execution *and* its
    eventual result-cache entry."""
    from repro.exp.cache import canonical_json, code_version

    material = canonical_json({
        "experiment": point.experiment,
        "params": dict(point.params),
        "fn": f"{point.fn.__module__}:{point.fn.__qualname__}",
        "code": version if version is not None else code_version(),
    })
    return hashlib.sha256(material.encode()).hexdigest()[:24]
