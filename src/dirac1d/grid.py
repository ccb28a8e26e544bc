"""Uniform 1D grids, grid-sampled functions, finite differences and quadrature.

Two boundary flavours are supported and they fix both the node layout and the
quadrature rule:

* ``dirichlet``: nodes include both endpoints, spacing ``h = L/(n-1)``,
  trapezoid quadrature.  Meant for hard-wall problems where the endpoint
  values are pinned.
* ``periodic``: nodes cover ``[x_min, x_max)`` with spacing ``h = L/n`` (the
  right endpoint is the left one), rectangle-rule quadrature, wrap-around
  difference stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridError

BOUNDARIES = ("dirichlet", "periodic")

# relative slack, in units of the domain length, of Grid1D.is_symmetric
SYMMETRY_REL_TOL = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with one of the two boundary flavours."""

    x_min: float
    x_max: float
    n_points: int
    boundary: str = "dirichlet"

    def __post_init__(self) -> None:
        if self.boundary not in BOUNDARIES:
            raise GridError(
                f"unknown boundary {self.boundary!r}; expected one of {BOUNDARIES}"
            )
        if not self.x_min < self.x_max:
            raise GridError(
                f"need x_min < x_max, got x_min={self.x_min} x_max={self.x_max}"
            )
        if self.n_points < 8:
            raise GridError(
                f"n_points={self.n_points} is too coarse; at least 8 nodes required"
            )

    @property
    def h(self) -> float:
        span = self.x_max - self.x_min
        if self.boundary == "dirichlet":
            return span / (self.n_points - 1)
        return span / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        x = self.x_min + self.h * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.h)
        if self.boundary == "dirichlet":
            w[0] *= 0.5
            w[-1] *= 0.5
        w.flags.writeable = False
        return w

    def is_symmetric(self) -> bool:
        """True when the domain is symmetric about the origin (x_min = -x_max)."""
        return abs(self.x_min + self.x_max) <= SYMMETRY_REL_TOL * (self.x_max - self.x_min)


def build_grid(x_min: float, x_max: float, n_points: int,
               boundary: str = "dirichlet") -> Grid1D:
    """Validate parameters and return the grid."""
    return Grid1D(float(x_min), float(x_max), int(n_points), boundary)


@dataclass(frozen=True)
class GridFunction:
    """Complex-valued samples tied to a specific grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise GridError(
                f"values shape {v.shape} does not match grid with "
                f"{self.grid.n_points} nodes"
            )
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise GridError("grid function contains non-finite samples")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: Grid1D, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex) * np.ones(grid.n_points))

    @classmethod
    def constant(cls, grid: Grid1D, value: complex) -> "GridFunction":
        return cls(grid, np.full(grid.n_points, complex(value)))


def differentiate(f: GridFunction) -> GridFunction:
    """Central-difference derivative of a grid function.

    Periodic grids wrap; dirichlet grids use second-order one-sided stencils
    at the two endpoints.
    """
    v = f.values
    h = f.grid.h
    if f.grid.boundary == "periodic":
        return GridFunction(f.grid, (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h))
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return GridFunction(f.grid, out)


def integrate(f: GridFunction) -> complex:
    """Quadrature over the whole domain (trapezoid or rectangle per boundary)."""
    return complex(np.sum(f.grid.quadrature_weights * f.values))
