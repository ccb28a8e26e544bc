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
periodic wraps the stencils.  _stencil writes the stencil down once, as
node j's 2x2 couplings to j -+ 1 and its own block plus the Wilson term's
on-site part; the dense matrix is _banded of it, in the layout
v = [phi_plus(all active nodes), phi_minus(all active nodes)].
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
    active nodes (the interior for dirichlet); the stencil (_stencil) and
    the dense matrix are derived.
    """

    grid: Grid1D
    scheme: str
    wilson_r: float
    mass: GridFunction
    potential: LorentzPotential
    blocks: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense 2K x 2K matrix, read-only, built on first use: _banded
        of _stencil."""
        h = _banded(self.grid, *_stencil(self))
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
    entries of the blocks (_stencil's onsite), overflows is a GridError;
    Grid1D keeps 1/h, and with it the central difference's 1/(2h), finite.
    """
    wilson_r = _checked_wilson_r(scheme, wilson_r)
    act = slice(1, -1) if grid.boundary == "dirichlet" else slice(None)
    blocks = blocks_on_grid(grid, pot, mass)[act]
    blocks.flags.writeable = False
    op = DiracOperator(grid=grid, scheme=scheme, wilson_r=wilson_r, mass=mass,
                       potential=pot, blocks=blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        onsite = _stencil(op)[1]
    if not np.isfinite(onsite).all():
        raise GridError(
            f"wilson_r = {wilson_r:g} overflows the operator on a grid with "
            f"h = {grid.h:g}: the Wilson term wilson_r/(2h) is too large")
    return op


def _stencil(op: DiracOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, onsite, upper): node j's 2x2 couplings to j - 1 and to j + 1,
    the same for every node, and the (K, 2, 2) stack of its own.

    A coupling is -i sigma_z times the central difference -+1/(2h), plus
    the Wilson term -w sigma_x with w = wilson_r/(2h); onsite is node j's
    block plus 2w sigma_x.  The Wilson entries start from +0.0 (0.0 - w,
    0.0 + 2w), so wilson_r = 0 or -0.0 gives +0.0 there, never -0.0.
    """
    s = 1.0 / (2.0 * op.grid.h)
    w = op.wilson_r / (2.0 * op.grid.h)
    diag = np.eye(2, dtype=bool)
    z = -1.0j * np.diagonal(GAMMA5)
    lower, upper = (np.where(diag, z * t, 0.0 - w) for t in (-s, s))
    return lower, op.blocks + np.where(diag, 0.0, 0.0 + 2.0 * w), upper


def _banded(grid: Grid1D, lower: np.ndarray, onsite: np.ndarray,
            upper: np.ndarray) -> np.ndarray:
    """The (aK, bK) matrix, in the [component, node] layout, of node j's
    a x b couplings: onsite[j] to itself, upper to j + 1 and lower to j - 1,
    wrapped on a periodic grid and dropped past a hard wall."""
    k, a, b = onsite.shape
    node = np.arange(k)
    left = node if grid.boundary == "periodic" else node[:-1]
    right = (left + 1) % k
    m = np.zeros((a, k, b, k), dtype=np.result_type(lower, onsite, upper))
    m[:, left, :, right] = upper
    m[:, right, :, left] = lower
    m[:, node, :, node] = onsite
    return m.reshape(a * k, b * k)


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
