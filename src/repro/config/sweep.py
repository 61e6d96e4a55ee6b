"""Config-driven sweep runner: grids of overrides -> measured points.

The ablation benchmarks all share one shape: take a baseline platform
configuration, vary a few dotted-path parameters over a grid, run a
measurement callable at each point, and tabulate.  :func:`run_sweep`
makes that declarative:

    result = run_sweep(
        lambda cfg: simulate_transfer(
            1 << 20, "write", link=cfg.eci.link, links_used=cfg.eci.links_used
        ).throughput_gibps,
        axes={
            "eci.links_used": [1, 2],
            "eci.link.lanes_per_link": [12, 4],
        },
    )
    result.value(**{"eci.links_used": 2, "eci.link.lanes_per_link": 12})

Every point's configuration is built with
:meth:`PlatformConfig.with_overrides`, so invalid grid values fail fast
with the offending dotted path.  Results flow through ``repro.obs``
when a registry is passed: one ``sweep_result`` gauge per point, the
axis values as labels, exportable with the standard JSON-lines /
Prometheus / summary-table exporters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..obs import NULL_REGISTRY
from .tree import PlatformConfig, preset

__all__ = ["SweepPoint", "SweepResult", "expand_grid", "run_sweep"]


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of axis values, preserving axis order.

    ``{"a": [1, 2], "b": [x, y]}`` -> ``[{a:1,b:x}, {a:1,b:y},
    {a:2,b:x}, {a:2,b:y}]``.
    """
    if not axes:
        return [{}]
    names = list(axes)
    for name, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"axis {name!r} has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]


@dataclass(frozen=True)
class SweepPoint:
    """One design point: the overrides, the config they built, the result."""

    overrides: Tuple[Tuple[str, Any], ...]
    config: PlatformConfig
    result: Any

    def axis(self, name: str) -> Any:
        for key, value in self.overrides:
            if key == name:
                return value
        raise KeyError(name)


class SweepResult:
    """The ordered collection of points from one sweep."""

    def __init__(self, axes: Sequence[str], points: Sequence[SweepPoint]):
        self.axes = list(axes)
        self.points = list(points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def value(self, **axis_values: Any) -> Any:
        """Result of the unique point matching the given axis values.

        Axis names are exact dotted paths, passed via dict unpacking:
        ``result.value(**{"eci.links_used": 2})``.
        """
        for axis in axis_values:
            if axis not in self.axes:
                raise KeyError(f"unknown axis {axis!r}; axes: {self.axes}")
        matches = [
            p
            for p in self.points
            if all(
                any(key == axis and val == value for key, val in p.overrides)
                for axis, value in axis_values.items()
            )
        ]
        if not matches:
            raise KeyError(f"no sweep point matches {axis_values!r}")
        if len(matches) > 1:
            raise KeyError(f"{len(matches)} sweep points match {axis_values!r}")
        return matches[0].result

    def rows(self) -> List[tuple]:
        """One row per point: axis values in axis order, then the result."""
        return [
            tuple(point.axis(axis) for axis in self.axes) + (point.result,)
            for point in self.points
        ]

    def table(self, title: str = "sweep", result_header: str = "result") -> str:
        """Render through the shared benchmark-table formatter."""
        return render_table(
            self.axes + [result_header], self.rows(), title=title
        )


def run_sweep(
    fn: Callable[[PlatformConfig], Any],
    axes: Mapping[str, Sequence[Any]],
    base: PlatformConfig | str = "full",
    obs=None,
    metric: str = "sweep_result",
) -> SweepResult:
    """Run ``fn`` at every point of an override grid.

    ``base`` is a :class:`PlatformConfig` or a preset name; each grid
    point applies its dotted-path overrides on top of it.  ``fn``
    receives the fully-built, validated config and returns the
    measurement (any value; scalars export cleanly).

    With an ``obs`` registry attached, each scalar result is recorded as
    a ``metric`` gauge labelled by the point's axis values, and a dict
    result as one gauge per key (``metric_<key>``).
    """
    obs = obs if obs is not None else NULL_REGISTRY
    base_cfg = preset(base) if isinstance(base, str) else base
    points: List[SweepPoint] = []
    for overrides in expand_grid(axes):
        cfg = base_cfg.with_overrides(overrides)
        result = fn(cfg)
        labels = {path: str(value) for path, value in overrides.items()}
        if isinstance(result, Mapping):
            for key, value in result.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    obs.gauge(f"{metric}_{key}", labels).set(float(value))
        elif isinstance(result, (int, float)) and not isinstance(result, bool):
            obs.gauge(metric, labels).set(float(result))
        points.append(SweepPoint(tuple(overrides.items()), cfg, result))
    return SweepResult(list(axes), points)


def sweep_table(
    fn: Callable[[PlatformConfig], Any],
    axes: Mapping[str, Sequence[Any]],
    base: PlatformConfig | str = "full",
    title: str = "sweep",
    result_header: str = "result",
    obs: Optional[Any] = None,
) -> str:
    """One-call convenience: run the sweep and render its table."""
    return run_sweep(fn, axes, base=base, obs=obs).table(
        title=title, result_header=result_header
    )
