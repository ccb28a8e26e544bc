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

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import GridError

BOUNDARIES = ("dirichlet", "periodic")

# relative slack, in units of the domain length, of Grid1D.is_symmetric
SYMMETRY_REL_TOL = 1e-12


def _is_a(value, *kinds) -> bool:
    """isinstance(value, kinds), except for a bool (an int subclass)."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with one of the two boundary flavours.

    The bounds are stored as floats and n_points as an int; a bound that is
    not a finite real number, or an n_points that is not an integer, is a
    GridError naming the field, and so are bounds whose distance, or the
    inverse spacing 1/h, is not finite.
    """

    x_min: float
    x_max: float
    n_points: int
    boundary: str = "dirichlet"

    def __post_init__(self) -> None:
        if self.boundary not in BOUNDARIES:
            raise GridError(
                f"unknown boundary {self.boundary!r}; expected one of {BOUNDARIES}"
            )
        for name in ("x_min", "x_max"):
            value = getattr(self, name)
            if not (_is_a(value, Real) and math.isfinite(value)):
                raise GridError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not _is_a(self.n_points, Integral):
            raise GridError(f"n_points must be an integer, got {self.n_points!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        if not self.x_min < self.x_max:
            raise GridError(
                f"need x_min < x_max, got x_min={self.x_min} x_max={self.x_max}"
            )
        if self.n_points < 8:
            raise GridError(
                f"n_points={self.n_points} is too coarse; at least 8 nodes required"
            )
        h = self.h
        if not (math.isfinite(self.x_max - self.x_min) and h > 0.0
                and math.isfinite(1.0 / h)):
            raise GridError(
                f"x_min and x_max must be a finite distance apart with a finite "
                f"1/h, got x_min={self.x_min}, x_max={self.x_max} (h = {h})"
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

    def nearest_node(self, x: float) -> int:
        """Index of the node closest to x; the lower one on a tie."""
        return int(np.argmin(np.abs(self.nodes - x)))

    def is_symmetric(self) -> bool:
        """True when the domain is symmetric about the origin (x_min = -x_max)."""
        return abs(self.x_min + self.x_max) <= SYMMETRY_REL_TOL * (self.x_max - self.x_min)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples tied to a grid: one function, or a stack of them,
    with the grid's nodes on the last axis."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.shape[-1:] != (self.grid.n_points,):
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
    def constant(cls, grid: Grid1D, value: complex) -> "GridFunction":
        return cls(grid, np.full(grid.n_points, complex(value)))


def central_difference(v: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Central-difference derivative of samples v on grid, along the last axis.

    Periodic grids wrap; dirichlet grids use second-order one-sided stencils
    at the two endpoints.
    """
    h = grid.h
    if grid.boundary == "periodic":
        return (np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)) / (2.0 * h)
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    out[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    return out

