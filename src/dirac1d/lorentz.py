"""Mass profiles, Lorentz-structure potentials and the fixed gamma matrices.

Conventions (1+1 dimensions, metric diag(+,-)):

* the representation: gamma0 = sigma_x, gamma1 = -i sigma_y, so
  gamma5 = gamma0 gamma1 = sigma_z,
* a general static potential has four channels,
      V = gamma0 V_t + gamma1 V_sp + V_s - i gamma5 V_p,
  i.e. time-component vector, space-component vector, scalar, pseudoscalar,
* the mass and the potential enter every operator and diagnostic through
  one per-node 2x2 block, h = gamma0 (M + V) (local_blocks),
* the mass-induced vector potential A(x) = (i/2) M'(x)/M(x) is purely
  imaginary for a real mass and PT-symmetric, A(-x) = conj(A(x)), whenever
  M is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import GridError, MassError
from .grid import Grid1D, GridFunction

MASS_FAMILIES = ("constant", "linear", "inverse_linear", "quadratic_even", "double_well")

# families meant as physical masses must stay strictly positive on the grid;
# the two linear-type profiles are allowed to change sign between nodes
_POSITIVE_FAMILIES = frozenset({"constant", "quadratic_even", "double_well"})


@dataclass(frozen=True)
class MassProfile:
    """Closed-form mass family M(x) with analytic derivative.

    Families:
        constant         M = m0
        linear           M = m0 + lam*x
        inverse_linear   M = m0 + lam/x
        quadratic_even   M = m0*(1 + alpha*x^2)
        double_well      M = m0 + lam*(x^2 - a^2)^2
    """

    family: str
    m0: float = 1.0
    lam: float = 0.0
    alpha: float = 0.0
    a: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in MASS_FAMILIES:
            raise MassError(
                f"unknown mass family {self.family!r}; expected one of {MASS_FAMILIES}"
            )

    def mass(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            return np.full_like(x, self.m0)
        if self.family == "linear":
            return self.m0 + self.lam * x
        if self.family == "inverse_linear":
            return self.m0 + self.lam / x
        if self.family == "quadratic_even":
            return self.m0 * (1.0 + self.alpha * x * x)
        # double_well
        return self.m0 + self.lam * (x * x - self.a * self.a) ** 2

    def dmass_dx(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            return np.zeros_like(x)
        if self.family == "linear":
            return np.full_like(x, self.lam)
        if self.family == "inverse_linear":
            return -self.lam / (x * x)
        if self.family == "quadratic_even":
            return 2.0 * self.m0 * self.alpha * x
        return 4.0 * self.lam * x * (x * x - self.a * self.a)


def sample_mass(profile: MassProfile, grid: Grid1D) -> GridFunction:
    """Sample M(x) on the grid, rejecting profiles that are singular there.

    inverse_linear additionally demands that every node keep at least one
    grid spacing away from the pole at x = 0.
    """
    x = grid.nodes
    if profile.family == "inverse_linear" and np.min(np.abs(x)) < grid.h:
        raise MassError(
            "inverse_linear mass: grid node within one spacing of the pole at x=0"
        )
    m = profile.mass(x)
    if not np.all(np.isfinite(m)):
        raise MassError("mass profile not finite on the grid")
    if np.any(m == 0.0):
        raise MassError("mass profile vanishes at a grid node")
    if profile.family in _POSITIVE_FAMILIES and np.any(m <= 0.0):
        raise MassError(
            f"{profile.family} mass must be strictly positive on the grid "
            f"(min {m.min():g})"
        )
    return GridFunction(grid, m)


def pt_vector_potential(profile: MassProfile, grid: Grid1D) -> GridFunction:
    """The vector potential A = (i/2) M'/M generated by the mass profile.

    Uses the family's analytic derivative, never a finite difference, so the
    result carries no discretization error of its own.
    """
    m = sample_mass(profile, grid)  # validates M != 0 on the nodes
    a = 0.5j * profile.dmass_dx(grid.nodes) / m.values
    return GridFunction(grid, a)


def check_pt_symmetry(f: GridFunction) -> float:
    """The PT residual max |f(-x) - conj(f(x))| over the nodes.

    Requires a grid symmetric about the origin so that -x lands on a node:
    dirichlet grids mirror j <-> n-1-j, periodic grids mirror j <-> (n-j) mod n.
    """
    g = f.grid
    if not g.is_symmetric():
        raise GridError(
            "PT symmetry check requires a grid symmetric about the origin "
            f"(got x_min={g.x_min}, x_max={g.x_max})"
        )
    n = g.n_points
    idx = np.arange(n)
    if g.boundary == "dirichlet":
        mirror = n - 1 - idx
    else:
        mirror = (n - idx) % n
    return float(np.max(np.abs(f.values[mirror] - np.conj(f.values))))


# The one representation every operator and diagnostic is built in; the
# continuity equation and the gamma0 orthonormalization condition do not
# depend on this choice.
GAMMA0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # sigma_x
GAMMA1 = -1.0j * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)  # -i sigma_y
GAMMA5 = GAMMA0 @ GAMMA1  # sigma_z
for _g in (GAMMA0, GAMMA1, GAMMA5):
    _g.flags.writeable = False
del _g


@dataclass(frozen=True)
class LorentzPotential:
    """The four static channels: time-vector, space-vector, scalar, pseudoscalar."""

    v_t: GridFunction
    v_sp: GridFunction
    v_s: GridFunction
    v_p: GridFunction

    def __post_init__(self) -> None:
        g = self.v_t.grid
        for name in ("v_sp", "v_s", "v_p"):
            if getattr(self, name).grid != g:
                raise GridError(f"potential channel {name} lives on a different grid")

    @property
    def grid(self) -> Grid1D:
        return self.v_t.grid

    @classmethod
    def from_channels(cls, grid: Grid1D,
                      v_t: Optional[GridFunction] = None,
                      v_sp: Optional[GridFunction] = None,
                      v_s: Optional[GridFunction] = None,
                      v_p: Optional[GridFunction] = None) -> "LorentzPotential":
        """The given channels on grid, each one not given zero."""
        z = GridFunction.constant(grid, 0.0)
        return cls(v_t=v_t or z, v_sp=v_sp or z, v_s=v_s or z, v_p=v_p or z)

    @cached_property
    def anti_hermitian(self) -> np.ndarray:
        """Per-node 2x2 stack of V - gamma0 V^dag gamma0 (read-only).

        Vanishes exactly for Hermitian potentials in the gamma0 metric (all
        four channels real); feeding it through the phibar(.)phi bilinear
        yields the non-conservation density.  With b = gamma0 V the
        potential's local block, it is gamma0 (b - b^dag).
        """
        b = local_blocks(self)
        anti = GAMMA0 @ (b - np.conj(np.swapaxes(b, 1, 2)))
        anti.flags.writeable = False
        return anti


def local_blocks(pot: LorentzPotential,
                 mass: Optional[GridFunction] = None) -> np.ndarray:
    """The per-node 2x2 block h = gamma0 (M + V), shape (n, 2, 2).

    h = [[V_t + V_sp, M + V_s + i V_p], [M + V_s - i V_p, V_t - V_sp]], the
    non-derivative part of the Hamiltonian at each node.  Without a mass it
    is gamma0 V, the potential's part alone.  The assembled operator, the
    shooter's coefficients and the anti-Hermitian part are all built from it.
    Finite samples can still sum past the largest double: a block that is
    not finite is a GridError naming its first node.
    """
    h = np.empty((pot.grid.n_points, 2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        c = pot.v_s.values if mass is None else mass.values + pot.v_s.values
        i_p = 1.0j * pot.v_p.values
        h[:, 0, 0] = pot.v_t.values + pot.v_sp.values
        h[:, 0, 1] = c + i_p
        h[:, 1, 0] = c - i_p
        h[:, 1, 1] = pot.v_t.values - pot.v_sp.values
    if not np.isfinite(h).all():
        j = int(np.argmin(np.isfinite(h).all(axis=(1, 2))))
        raise GridError(
            f"the local block gamma0 (M + V) is not finite at node {j} "
            f"(x = {pot.grid.nodes[j]:g}): the mass and the potential "
            "channels overflow when summed")
    return h


def gamma0_hermiticity_residual(pot: LorentzPotential) -> float:
    """Max-norm of (gamma0 V)^dagger - gamma0 V over the nodes.

    gamma0 only permutes entries, so this is the max-norm of
    pot.anti_hermitian.  Zero exactly when all four channels are real;
    equals twice the largest anti-Hermitian part otherwise (e.g. 2 max|A|
    for V_t = A purely imaginary).
    """
    return float(np.max(np.abs(pot.anti_hermitian)))
