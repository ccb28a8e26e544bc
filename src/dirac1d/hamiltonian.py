"""Discrete Dirac Hamiltonian in first-order (one energy derivative) form.

With gamma0 = sigma_x, gamma1 = -i sigma_y the stationary equation
H phi = E phi for spinor phi = (phi_plus, phi_minus) reads

    E phi_plus  = -i phi_plus'  + (V_t + V_sp) phi_plus
                  + (M + V_s + i V_p) phi_minus
    E phi_minus = +i phi_minus' + (V_t - V_sp) phi_minus
                  + (M + V_s - i V_p) phi_plus

i.e. H = -i sigma_z d/dx + h(x), with h = gamma0 (M + V) the per-node
2x2 block of lorentz.local_blocks; the assembled matrix carries those
blocks on four diagonals.

The first derivative is the central difference.  The optional Wilson term
adds -(wilson_r*h/2) * (second central difference) inside the sigma_x (mass)
channel; it lifts the fermion-doubler branch of the central-difference
dispersion at the cost of an O(h) shift of each level.

Boundary handling follows the grid: dirichlet keeps the interior nodes only
(hard wall, endpoint values pinned at zero) while periodic wraps the
stencils.  Matrix layout is block-by-component,
v = [phi_plus(all active nodes), phi_minus(all active nodes)].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError
from .grid import Grid1D, GridFunction
from .lorentz import GAMMA0, GAMMA5, LorentzPotential, local_blocks

OPERATOR_SCHEMES = ("central", "central_wilson")


def wilson_weight(scheme: str, wilson_r: float) -> float:
    """Validate the scheme; return the Wilson weight it applies (0.0 for central)."""
    if scheme not in OPERATOR_SCHEMES:
        raise GridError(
            f"unknown operator scheme {scheme!r}; expected one of {OPERATOR_SCHEMES}"
        )
    return wilson_r if scheme == "central_wilson" else 0.0


def _difference_matrices(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Central first-difference D and plain second-difference stencil T.

    T carries the {1, -2, 1} pattern without the 1/h^2 factor so the Wilson
    weight -wilson_r/(2h) can be applied directly.  For dirichlet grids both
    act on the interior nodes with the wall values treated as zero.
    """
    periodic = grid.boundary == "periodic"
    k = grid.n_points if periodic else grid.n_points - 2
    up = np.eye(k, k=1)
    if periodic:
        up[-1, 0] = 1.0
    down = up.T
    return (up - down) / (2.0 * grid.h), up + down - 2.0 * np.eye(k)


@dataclass(frozen=True)
class DiracOperator:
    """Assembled matrix plus everything needed to interpret and re-check it."""

    grid: Grid1D
    matrix: np.ndarray
    scheme: str
    wilson_r: float
    mass: GridFunction
    potential: LorentzPotential

    def __post_init__(self) -> None:
        # a read-only view (no copy), so the cached hermiticity cannot go stale
        view = np.asarray(self.matrix).view()
        view.flags.writeable = False
        object.__setattr__(self, "matrix", view)

    @cached_property
    def _hermiticity(self) -> float:
        """hermiticity_of_operator, formed once per operator."""
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    @property
    def active_index(self) -> np.ndarray:
        """Grid-node indices carried by the matrix (interior for dirichlet)."""
        if self.grid.boundary == "dirichlet":
            return np.arange(1, self.grid.n_points - 1)
        return np.arange(self.grid.n_points)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def assemble_hamiltonian(grid: Grid1D, pot: LorentzPotential, mass: GridFunction,
                         scheme: str = "central_wilson", wilson_r: float = 1.0
                         ) -> DiracOperator:
    """Build the 2K x 2K matrix (K = active nodes) for the given couplings.

    kron(sigma_z, -i D) + kron(sigma_x, Wilson term) plus the local blocks of
    the active nodes, in the block-by-component layout.
    """
    r = wilson_weight(scheme, wilson_r)
    if wilson_r < 0.0:
        raise GridError(f"wilson_r must be non-negative, got {wilson_r}")
    if mass.grid != grid or pot.grid != grid:
        raise GridError("mass and potential must live on the operator grid")

    d, t = _difference_matrices(grid)
    act = slice(1, -1) if grid.boundary == "dirichlet" else slice(None)
    blocks = local_blocks(pot, mass)[act]
    h_mat = (np.kron(GAMMA5, -1.0j * d)
             + np.kron(GAMMA0, -(r / (2.0 * grid.h)) * t))
    # node j's block acts on rows and columns (plus, j) and (minus, j); added
    # in place, which keeps no dense block-diagonal matrix alive
    k = len(blocks)
    node = np.arange(k)
    h_mat.reshape(2, k, 2, k)[:, node, :, node] += blocks
    return DiracOperator(grid=grid, matrix=h_mat, scheme=scheme,
                         wilson_r=float(wilson_r), mass=mass, potential=pot)


def hermiticity_of_operator(op: DiracOperator) -> float:
    """Entrywise max |H - H^dagger|; zero iff the assembled matrix is Hermitian.

    Cached on the operator: a run asks for it in the report and in the
    eigensolve, and each evaluation copies the full matrix twice.
    """
    return op._hermiticity


def _shift(values: np.ndarray, offset: int, periodic: bool) -> np.ndarray:
    """values[j + offset] with wrap-around or zero fill past a hard wall."""
    if periodic:
        return np.roll(values, -offset)
    out = np.zeros_like(values)
    if offset > 0:
        out[:-offset] = values[offset:]
    elif offset < 0:
        out[-offset:] = values[:offset]
    else:
        out[:] = values
    return out


def reduced_equations_rhs(energy: complex, plus: GridFunction, minus: GridFunction,
                          pot: LorentzPotential, mass: GridFunction,
                          scheme: str = "central_wilson", wilson_r: float = 1.0
                          ) -> tuple[GridFunction, GridFunction]:
    """Pointwise residuals of the two coupled first-order equations.

    Evaluates E*phi - (rhs of the coupled equations) node by node with shift
    operations, independently of any assembled matrix, so it can serve as an
    oracle for solver output.  The stencil convention matches the operator:
    pass the operator's scheme/wilson_r to test one of its eigenpairs.  On
    dirichlet grids the wall rows are not equations (values pinned) and the
    residual there is reported as zero.
    """
    r = wilson_weight(scheme, wilson_r)
    g = plus.grid
    if minus.grid != g or pot.grid != g or mass.grid != g:
        raise GridError("all inputs must share one grid")
    per = g.boundary == "periodic"
    h = g.h
    p = plus.values
    m = minus.values

    def d_central(v: np.ndarray) -> np.ndarray:
        return (_shift(v, +1, per) - _shift(v, -1, per)) / (2.0 * h)

    def second(v: np.ndarray) -> np.ndarray:
        return _shift(v, +1, per) - 2.0 * v + _shift(v, -1, per)

    c = mass.values + pot.v_s.values
    r_plus = (energy * p + 1.0j * d_central(p)
              - (pot.v_t.values + pot.v_sp.values) * p
              - (c + 1.0j * pot.v_p.values) * m)
    r_minus = (energy * m - 1.0j * d_central(m)
               - (pot.v_t.values - pot.v_sp.values) * m
               - (c - 1.0j * pot.v_p.values) * p)
    if r != 0.0:
        w = r / (2.0 * h)
        r_plus = r_plus + w * second(m)
        r_minus = r_minus + w * second(p)
    if not per:
        r_plus = r_plus.copy()
        r_minus = r_minus.copy()
        r_plus[0] = r_plus[-1] = 0.0
        r_minus[0] = r_minus[-1] = 0.0
    return GridFunction(g, r_plus), GridFunction(g, r_minus)


def reduced_residual_norm(energy: complex, plus: GridFunction, minus: GridFunction,
                          pot: LorentzPotential, mass: GridFunction,
                          scheme: str = "central_wilson", wilson_r: float = 1.0
                          ) -> float:
    """Relative l2 norm of the reduced-equation residuals."""
    rp, rm = reduced_equations_rhs(energy, plus, minus, pot, mass, scheme, wilson_r)
    num = np.sum(np.abs(rp.values) ** 2) + np.sum(np.abs(rm.values) ** 2)
    den = np.sum(np.abs(plus.values) ** 2) + np.sum(np.abs(minus.values) ** 2)
    if den == 0.0:
        raise GridError("zero spinor has no residual norm")
    return float(np.sqrt(num / den))
