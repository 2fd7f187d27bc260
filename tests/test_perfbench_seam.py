"""The benchmark's seam: the ``repro`` names that ``perfbench`` relies on.

``perfbench/spans.py`` wraps simulator entry points by module, owner and
attribute name, and ``perfbench/child.py`` reads sweep outcomes.  A
refactor that renames one of them breaks traced benchmark runs without
failing any other test.
"""

import dataclasses
import importlib

from perfbench import spans
from repro.exp import SweepOutcome


def test_perfbench_targets_resolve():
    for layer, module, owner, attr, _counter, _work in spans.TARGETS:
        target = importlib.import_module(module)
        where = (layer, module, owner, attr)
        if owner:
            target = getattr(target, owner)
            # Owner targets are patched through vars(), so the attribute
            # must be defined on that class, not inherited.
            assert attr in vars(target), where
        assert callable(getattr(target, attr, None)), where

    base_module, base_name = spans.CHANNEL_BASE
    importlib.import_module("repro.attacks")
    base = getattr(importlib.import_module(base_module), base_name)
    assert any("transmit" in vars(cls) for cls in spans._subclasses(base))

    fields = {field.name for field in dataclasses.fields(SweepOutcome)}
    assert {"cache_hits", "warm_hits"} <= fields
