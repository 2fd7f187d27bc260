"""Placeholder for two names the benchmark's layer spans still wrap.

``repro`` has no vector batch engine: every batch API
(``CacheHierarchy.access_batch``/``probe_batch``,
``MemoryController.access_run`` and ``System.load_many``) runs one
scalar loop.  ``perfbench/spans.py`` still wraps
the two functions below by name, so they stay defined, and its
``sim.vector.*`` metrics read zero.  No ``repro`` module imports or calls
them.  Drop both together with their span targets in a benchmark change.
"""

_REMOVED = "repro.sim.vector.{} was removed; batch APIs run their scalar loop"


def access_batch_vector(*args, **kwargs):
    raise RuntimeError(_REMOVED.format("access_batch_vector"))


def controller_run_vector(*args, **kwargs):
    raise RuntimeError(_REMOVED.format("controller_run_vector"))
