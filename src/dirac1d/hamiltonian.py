"""Discrete Dirac Hamiltonian in first-order (one energy derivative) form.

With gamma0 = sigma_x, gamma1 = -i sigma_y the stationary equation
H phi = E phi for spinor phi = (phi_plus, phi_minus) reads

    E phi_plus  = -i phi_plus'  + (V_t + V_sp) phi_plus
                  + (M + V_s + i V_p) phi_minus
    E phi_minus = +i phi_minus' + (V_t - V_sp) phi_minus
                  + (M + V_s - i V_p) phi_plus

i.e. H = -i sigma_z d/dx + h(x), with h = gamma0 (M + V) the per-node
2x2 block of lorentz.local_blocks.

The first derivative is the central difference.  The Wilson term adds
-(wilson_r*h/2) * (second central difference) inside the sigma_x (mass)
channel; it lifts the fermion-doubler branch of the central-difference
dispersion at the cost of an O(h) shift of each level, and wilson_r = 0
leaves the plain central difference.

A DiracOperator holds the blocks of its active nodes: dirichlet keeps the
interior nodes only (hard wall, endpoint values pinned at zero) while
periodic wraps the stencils.  The matrix is derived from them, in the
layout v = [phi_plus(all active nodes), phi_minus(all active nodes)].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError
from .grid import Grid1D, GridFunction
from .lorentz import GAMMA5, LorentzPotential, local_blocks

OPERATOR_SCHEMES = ("central_wilson",)


def _checked_wilson_r(scheme: str, wilson_r: float) -> float:
    """Validate the scheme and its Wilson parameter; return wilson_r."""
    if scheme not in OPERATOR_SCHEMES:
        raise GridError(
            f"unknown operator scheme {scheme!r}; expected one of {OPERATOR_SCHEMES}"
        )
    if not (np.isfinite(wilson_r) and wilson_r >= 0.0):
        raise GridError(f"wilson_r must be finite and non-negative, got {wilson_r}")
    return float(wilson_r)


@dataclass(frozen=True)
class DiracOperator:
    """The operator as the central stencil, one Wilson weight and per-node blocks.

    blocks is the read-only (K, 2, 2) stack of lorentz.local_blocks on the K
    active nodes (the interior for dirichlet); the dense matrix is derived.
    """

    grid: Grid1D
    scheme: str
    wilson_r: float
    mass: GridFunction
    potential: LorentzPotential
    blocks: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense 2K x 2K matrix, read-only, built on first use.

        Node j couples to j +- 1 (wrapped on periodic grids, dropped past a
        hard wall) through -i sigma_z times the central difference +-1/2h
        and through the Wilson term, -w inside sigma_x with w = wilson_r/2h,
        which also puts 2w next to node j's block on the sigma_x diagonal.
        """
        k = len(self.blocks)
        node = np.arange(k)
        left = node if self.grid.boundary == "periodic" else node[:-1]
        right = (left + 1) % k
        s = 1.0 / (2.0 * self.grid.h)
        h = np.zeros((2, k, 2, k), dtype=complex)
        for c, z in enumerate(-1.0j * np.diagonal(GAMMA5)):
            h[c, left, c, right] = z * s
            h[c, right, c, left] = z * -s
        if self.wilson_r != 0.0:  # else -w would write -0.0 over the zeros
            w = self.wilson_r / (2.0 * self.grid.h)
            for a, b in ((0, 1), (1, 0)):
                h[a, left, b, right] = h[a, right, b, left] = -w
                h[a, node, b, node] = 2.0 * w
        h[:, node, :, node] += self.blocks
        h = h.reshape(2 * k, 2 * k)
        h.flags.writeable = False
        return h

    @property
    def active_index(self) -> np.ndarray:
        """Grid-node indices carried by the matrix (interior for dirichlet)."""
        if self.grid.boundary == "dirichlet":
            return np.arange(1, self.grid.n_points - 1)
        return np.arange(self.grid.n_points)

    @property
    def size(self) -> int:
        return 2 * len(self.blocks)


def blocks_on_grid(grid: Grid1D, pot: LorentzPotential, mass: GridFunction) -> np.ndarray:
    """local_blocks(pot, mass) at every node of grid; a GridError unless the
    mass and the potential both live on grid."""
    if mass.grid != grid or pot.grid != grid:
        raise GridError("mass and potential must live on the operator grid")
    return local_blocks(pot, mass)


def assemble_hamiltonian(grid: Grid1D, pot: LorentzPotential, mass: GridFunction,
                         scheme: str = "central_wilson", wilson_r: float = 1.0
                         ) -> DiracOperator:
    """The operator of the given couplings, with the blocks of its active nodes.

    A wilson_r whose on-site term 2w = 2 wilson_r/(2h), added to the mass
    entries of the blocks, overflows is a GridError; Grid1D keeps 1/h, and
    with it the central difference's 1/(2h), finite.
    """
    wilson_r = _checked_wilson_r(scheme, wilson_r)
    act = slice(1, -1) if grid.boundary == "dirichlet" else slice(None)
    blocks = blocks_on_grid(grid, pot, mass)[act]
    # the sum DiracOperator.matrix forms on the sigma_x diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        onsite = 2.0 * (wilson_r / (2.0 * grid.h)) + blocks[:, [0, 1], [1, 0]]
    if not np.isfinite(onsite).all():
        raise GridError(
            f"wilson_r = {wilson_r:g} overflows the operator on a grid with "
            f"h = {grid.h:g}: the Wilson term wilson_r/(2h) is too large")
    blocks.flags.writeable = False
    return DiracOperator(grid=grid, scheme=scheme, wilson_r=wilson_r, mass=mass,
                         potential=pot, blocks=blocks)


def hermiticity_of_operator(op: DiracOperator) -> float:
    """Max |h - h^dagger| over the active blocks; zero iff H is Hermitian.

    The kinetic and Wilson parts are exactly Hermitian, so the blocks carry
    all of H - H^dagger; O(K), and exact where the dense matrix rounds the
    sum of 2w and a block entry.
    """
    b = op.blocks
    return float(np.max(np.abs(b - np.conj(np.swapaxes(b, 1, 2)))))


def reduced_equations_rhs(energy: complex | np.ndarray, plus: GridFunction,
                          minus: GridFunction, pot: LorentzPotential,
                          mass: GridFunction, scheme: str = "central_wilson",
                          wilson_r: float = 1.0) -> tuple[GridFunction, GridFunction]:
    """Pointwise residuals of the two coupled first-order equations.

    Evaluates E*phi - (rhs of the coupled equations) node by node with shift
    operations, independently of any assembled matrix, so it can serve as an
    oracle for solver output.  The stencil convention matches the operator:
    pass the operator's scheme/wilson_r to test one of its eigenpairs.  On
    dirichlet grids the wall rows are not equations (values pinned) and the
    residual there is reported as zero.  plus and minus hold one state or a
    stack of them, of one shape, and energy holds one value per state.
    """
    r = _checked_wilson_r(scheme, wilson_r)
    g = plus.grid
    if minus.grid != g or pot.grid != g or mass.grid != g:
        raise GridError("all inputs must share one grid")
    h = g.h
    p = plus.values
    m = minus.values
    if p.shape != m.shape:
        raise GridError(f"plus and minus must have one shape, got {p.shape} "
                        f"and {m.shape}")
    if mass.values.ndim != 1:
        raise GridError(f"the mass must be one function, not a stack of shape "
                        f"{mass.values.shape}")
    energy = np.asarray(energy)
    if energy.shape != p.shape[:-1]:
        raise GridError(f"need one energy per state: energy shape {energy.shape} "
                        f"for states of shape {p.shape}")
    energy = energy[..., None]

    # the neighbours v[j + 1] and v[j - 1] wrap on either boundary: on a
    # dirichlet grid the wrapped samples reach only the wall rows, whose
    # residual is set to zero below
    def neighbours(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ext = np.concatenate((v[..., -1:], v, v[..., :1]), axis=-1)
        return ext[..., 2:], ext[..., :-2]

    p_up, p_down = neighbours(p)
    m_up, m_down = neighbours(m)
    c = mass.values + pot.v_s.values
    r_plus = (energy * p + 1.0j * ((p_up - p_down) / (2.0 * h))
              - (pot.v_t.values + pot.v_sp.values) * p
              - (c + 1.0j * pot.v_p.values) * m)
    r_minus = (energy * m - 1.0j * ((m_up - m_down) / (2.0 * h))
               - (pot.v_t.values - pot.v_sp.values) * m
               - (c - 1.0j * pot.v_p.values) * p)
    if r != 0.0:
        w = r / (2.0 * h)
        r_plus = r_plus + w * (m_up - 2.0 * m + m_down)
        r_minus = r_minus + w * (p_up - 2.0 * p + p_down)
    if g.boundary == "dirichlet":
        r_plus[..., 0] = r_plus[..., -1] = 0.0
        r_minus[..., 0] = r_minus[..., -1] = 0.0
    return GridFunction(g, r_plus), GridFunction(g, r_minus)


def reduced_residual_norm(energy: complex | np.ndarray, plus: GridFunction,
                          minus: GridFunction, pot: LorentzPotential,
                          mass: GridFunction, scheme: str = "central_wilson",
                          wilson_r: float = 1.0) -> float | np.ndarray:
    """Relative l2 norm of the reduced-equation residuals: a float for one
    state, an array of one norm per state for a stack."""
    rp, rm = reduced_equations_rhs(energy, plus, minus, pot, mass, scheme, wilson_r)
    num = (np.sum(np.abs(rp.values) ** 2, axis=-1)
           + np.sum(np.abs(rm.values) ** 2, axis=-1))
    den = (np.sum(np.abs(plus.values) ** 2, axis=-1)
           + np.sum(np.abs(minus.values) ** 2, axis=-1))
    if np.any(den == 0.0):
        raise GridError("zero spinor has no residual norm")
    return np.sqrt(num / den)
