"""Declarative sweep points.

A :class:`SweepPoint` names one independent experiment invocation: a
module-level function plus JSON-able keyword parameters.  Restricting the
callable to module level keeps points picklable, which is what lets the
runner fan them out across worker processes; JSON-able parameters are
what a run report records for each point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional


@dataclass(frozen=True)
class SweepPoint:
    """One independently runnable point of a sweep.

    Attributes:
        experiment: the sweep's name (e.g. ``"fig8"``); points of one sweep
            share it, their ``params`` distinguish them.
        fn: a **module-level** callable (picklable by reference) invoked as
            ``fn(**params)``; its payload must pickle to come back from a
            worker process.
        params: keyword arguments.
        label: optional human-readable tag for logs and trace file names.
    """

    experiment: str
    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        qualname = getattr(self.fn, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ValueError(
                f"sweep point function {qualname!r} must be module-level "
                "(closures and lambdas cannot cross process boundaries)")

    def run(self) -> Any:
        return self.fn(**dict(self.params))

    def describe(self) -> str:
        if self.label:
            return self.label
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.experiment}({inner})"


def sweep_points(experiment: str, fn: Callable[..., Any], axis: str,
                 values: Iterable[Any],
                 **common: Any) -> List[SweepPoint]:
    """Points varying ``axis`` over ``values`` with ``common`` fixed.

    Example::

        points = sweep_points("fig8", fig8_point, "llc_mb", [8, 16, 32, 64])
    """
    points: List[SweepPoint] = []
    for value in values:
        params: Dict[str, Any] = dict(common)
        params[axis] = value
        points.append(SweepPoint(experiment=experiment, fn=fn, params=params,
                                 label=f"{experiment}[{axis}={value}]"))
    return points
