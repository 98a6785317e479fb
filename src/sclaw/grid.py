"""Periodic grids, cell-average fields, and saved trajectories.

Space is the unit torus [0, 1) split into M equal cells; a field is the
vector of its cell averages.  Trajectories collect snapshots on a
strictly increasing time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the unit torus: M cells of width dx = 1/M."""

    cells: int

    def __post_init__(self):
        if not (isinstance(self.cells, (int, np.integer)) and self.cells >= 2):
            raise ValueError(f"cells must be an integer >= 2, got {self.cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.cells

    @property
    def centers(self) -> np.ndarray:
        m = self.cells
        return (np.arange(m) + 0.5) / m

    @property
    def edges(self) -> np.ndarray:
        return np.arange(self.cells + 1) / self.cells


@dataclass(frozen=True)
class ScalarField:
    """Cell-average values of a scalar field on a TorusGrid.

    Values are copied on construction, checked finite, and frozen
    (the backing array is marked read-only), so fields can be shared
    across worker threads without locks.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (self.grid.cells,):
            raise ValueError(
                f"values shape {v.shape} does not match grid ({self.grid.cells},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def range_bounds(self) -> tuple[float, float]:
        return float(np.min(self.values)), float(np.max(self.values))


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of a field on a strictly increasing time grid.

    ``values[j]`` is the cell-average vector at ``times[j]``; the first
    time is 0 and the last is the horizon of the run that produced it.
    Times and values are copied on construction and read-only, so later
    writes to the inputs do not show.
    """

    grid: TorusGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float, copy=True)
        v = np.array(self.values, dtype=float, copy=True)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need at least two snapshots")
        if v.shape != (len(t), self.grid.cells):
            raise ValueError(
                f"values shape {v.shape}, expected ({len(t)}, {self.grid.cells})")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if t[0] != 0.0:
            raise ValueError("times must start at 0")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("trajectory data must be finite")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def make_initial(grid: TorusGrid, kind: str, **params) -> ScalarField:
    """Build a named initial profile as exact cell averages.

    Kinds:
      constant(value)          flat profile
      riemann(left,right,x0)   left state on [0,x0), right state on [x0,1)
      sine(mean,amp,mode)      mean + amp*sin(2*pi*mode*x)
    """
    m, dx = grid.cells, grid.dx
    if kind == "constant":
        value = _take(params, "value", kind)
        vals = np.full(m, float(value))
    elif kind == "riemann":
        left = _take(params, "left", kind)
        right = _take(params, "right", kind)
        x0 = _take(params, "x0", kind)
        if not 0.0 <= x0 <= 1.0:
            raise ValueError(f"riemann x0 must lie in [0, 1], got {x0}")
        lo, hi = grid.edges[:-1], grid.edges[1:]
        # fraction of each cell lying left of the jump
        frac = np.clip((x0 - lo) / dx, 0.0, 1.0)
        vals = left * frac + right * (1.0 - frac)
    elif kind == "sine":
        mean = _take(params, "mean", kind)
        amp = _take(params, "amp", kind)
        mode = int(_take(params, "mode", kind))
        if mode < 1:
            raise ValueError(f"sine mode must be >= 1, got {mode}")
        w = 2.0 * np.pi * mode
        lo = grid.edges[:-1]
        # exact average of sin over each cell; cos telescopes so the grid mean is 0
        vals = mean + amp * (np.cos(w * lo) - np.cos(w * (lo + dx))) / (w * dx)
    else:
        raise ValueError(f"unknown initial kind: {kind}")
    if params:
        raise ValueError(f"{min(params)} is not a parameter of initial "
                         f"kind {kind}")
    return ScalarField(grid, vals)


def _take(params: dict, key: str, kind: str):
    if key not in params:
        raise ValueError(f"{key} is required by initial kind {kind}")
    return params.pop(key)
