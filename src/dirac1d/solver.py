"""Eigenvalue solvers: dense matrix diagonalization and two-sided shooting.

The matrix path hands the (generally non-Hermitian) operator to LAPACK's
general eigensolver and wraps the output in checked, deterministically
ordered form.  The shooting path integrates the coupled first-order system
from both walls with classical RK4 and drives the 2x2 matching determinant
at the midpoint to zero, which gives continuum (not lattice) eigenvalues.
The system is linear in the state, so each RK4 substep is a 2x2 matrix:
a trial energy builds all of them in batched array expressions and the
midpoint states are their ordered products, formed as a pairwise tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConvergenceError, GridError
from .grid import Grid1D, GridFunction
from .hamiltonian import DiracOperator
from .lorentz import LorentzPotential

REALITY_TAGS = ("real", "complex_pair_member", "complex_unpaired")

# shooting root search: stop when the step is below SHOOTING_TOL relative to
# |E| (see _converged); give up after SHOOTING_MAX_ITER steps
SHOOTING_TOL = 1e-12
SHOOTING_MAX_ITER = 60


@dataclass(frozen=True)
class Spinor:
    """One two-component state on the full grid (wall nodes included)."""

    grid: Grid1D
    plus_component: np.ndarray
    minus_component: np.ndarray
    energy: complex

    def __post_init__(self) -> None:
        p = np.asarray(self.plus_component, dtype=complex).copy()
        m = np.asarray(self.minus_component, dtype=complex).copy()
        if p.shape != (self.grid.n_points,) or m.shape != (self.grid.n_points,):
            raise GridError("spinor components must match the grid size")
        p.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "plus_component", p)
        object.__setattr__(self, "minus_component", m)
        object.__setattr__(self, "energy", complex(self.energy))


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenpairs with residuals, reality tags and solve metadata."""

    eigenpairs: tuple[Spinor, ...]
    residuals: np.ndarray
    classification: tuple[str, ...]
    solver_tolerance: float
    scheme: str
    wilson_r: float
    mass: GridFunction
    potential: LorentzPotential

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.eigenpairs])

    @property
    def grid(self) -> Grid1D:
        return self.mass.grid


def _embed(op: DiracOperator, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a matrix eigenvector into full-grid components (zero at hard walls)."""
    k = op.size // 2
    n = op.grid.n_points
    plus = np.zeros(n, dtype=complex)
    minus = np.zeros(n, dtype=complex)
    plus[op.active_index] = column[:k]
    minus[op.active_index] = column[k:]
    return plus, minus


def solve_spectrum(op: DiracOperator, tol: float = 1e-9, max_pairs: int = 12,
                   reality_tol: float = 1e-9) -> SpectrumResult:
    """Diagonalize, order by (|Re E|, Im E, Re E), keep the lowest max_pairs.

    Every returned pair is residual-checked: ||H v - E v||_2 / ||v||_2 must
    not exceed tol, otherwise the solve is reported as non-converged with the
    offending residuals listed.  Eigenvectors are returned unnormalized;
    normalization conventions live in the diagnostics layer.
    """
    if max_pairs < 1:
        raise GridError(f"max_pairs must be positive, got {max_pairs}")
    w, v = np.linalg.eig(op.matrix)
    order = np.lexsort((w.real, w.imag, np.abs(w.real)))
    keep = order[: min(max_pairs, len(order))]

    residuals = np.empty(len(keep))
    spinors = []
    for i, col in enumerate(keep):
        vec = v[:, col]
        residuals[i] = (np.linalg.norm(op.matrix @ vec - w[col] * vec)
                        / np.linalg.norm(vec))
        plus, minus = _embed(op, vec)
        spinors.append(Spinor(grid=op.grid, plus_component=plus,
                              minus_component=minus, energy=w[col]))
    bad = np.nonzero(residuals > tol)[0]
    if bad.size:
        detail = ", ".join(
            f"E={spinors[i].energy:.6g} residual={residuals[i]:.3e}" for i in bad
        )
        raise ConvergenceError(
            f"eigensolver residuals exceed tol={tol:g} for {bad.size} pair(s): {detail}"
        )
    result = SpectrumResult(
        eigenpairs=tuple(spinors), residuals=residuals,
        classification=("real",) * len(spinors), solver_tolerance=float(tol),
        scheme=op.scheme, wilson_r=op.wilson_r, mass=op.mass,
        potential=op.potential,
    )
    return classify_reality(result, tol=reality_tol)


def classify_reality(result: SpectrumResult, tol: float = 1e-9) -> SpectrumResult:
    """Tag each eigenvalue real / conjugate-pair member / unpaired complex.

    Real means |Im E| <= tol * max(1, |Re E|).  The remaining eigenvalues are
    greedily matched against their complex conjugates within the same
    tolerance; leftovers are tagged complex_unpaired (which typically means
    the partner fell outside the retained low-|Re| window, not a bug).
    """
    e = result.energies
    scale = np.maximum(1.0, np.abs(e.real))
    is_real = np.abs(e.imag) <= tol * scale
    tags = np.where(is_real, "real", "").astype(object)

    open_idx = [i for i in range(len(e)) if not is_real[i]]
    while open_idx:
        i = open_idx.pop(0)
        best_j, best_gap = -1, np.inf
        for j in open_idx:
            gap = abs(e[i] - np.conj(e[j]))
            if gap < best_gap:
                best_j, best_gap = j, gap
        if best_j >= 0 and best_gap <= tol * max(1.0, abs(e[i])):
            tags[i] = tags[best_j] = "complex_pair_member"
            open_idx.remove(best_j)
        else:
            tags[i] = "complex_unpaired"
    return replace(result, classification=tuple(str(t) for t in tags))


@dataclass(frozen=True)
class ShootingResult:
    energy: complex
    spinor: Spinor
    iterations: int
    determinant: complex
    match_mismatch: float


def _coefficient_table(xs: np.ndarray, pot: LorentzPotential, mass: GridFunction,
                       substeps: int) -> np.ndarray:
    """(v_t, v_sp, M+V_s+iV_p, M+V_s-iV_p) at every RK4 stage along xs.

    Shape (len(xs) - 1, substeps, 3, 4): for each node interval and substep,
    the rows at its start, middle and end.  Off-node values are cubic splines
    of the sampled channels (their O(h^4) error matches the integrator
    order); a constant channel is used as it is.  Nothing here depends on
    the trial energy, so one table serves the whole root search:
    _step_matrices turns it into the substep matrices of each trial energy.
    """
    x = xs[:-1, None]
    dx = (xs[1:, None] - x) / substeps
    xa = x + np.arange(substeps) * dx
    stages = np.stack([xa, xa + 0.5 * dx, xa + dx], axis=-1)

    def at_stages(values: np.ndarray) -> np.ndarray:
        if np.all(values == values[0]):
            return np.full(stages.shape, complex(values[0]))
        return CubicSpline(mass.grid.nodes, values)(stages).astype(complex)

    # filled in place: stacking five channel arrays and their sums kept
    # about twice the table alive at once and raised the solve's peak RSS
    table = np.empty(stages.shape + (4,), dtype=complex)
    table[..., 0] = at_stages(pot.v_t.values)
    table[..., 1] = at_stages(pot.v_sp.values)
    m_s = at_stages(mass.values) + at_stages(pot.v_s.values)
    i_p = 1.0j * at_stages(pot.v_p.values)
    table[..., 2] = m_s + i_p
    table[..., 3] = m_s - i_p
    return table


def _step_matrices(energy: complex, table: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The RK4 substeps of one segment as matrices: phi <- P phi, in order.

    The system phi' = F(x) phi is linear, with
    F = [[i(E - v_t - v_sp), -i(M+V_s+iV_p)], [i(M+V_s-iV_p), -i(E - v_t + v_sp)]],
    so one classical RK4 substep is exactly
    P = I + dx/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = F_start,
    K2 = F_mid (I + dx/2 K1), K3 = F_mid (I + dx/2 K2), K4 = F_end (I + dx K3).
    table is _coefficient_table(xs, ...) and dx the (len(xs) - 1, 1) substep
    widths.  Returns a (2, 2, (len(xs) - 1) * substeps) stack, substep j of
    interval i at i * substeps + j.
    """
    coeff = np.moveaxis(table, (2, 3), (0, 1))  # (stage, channel, N, substeps)
    vt, vsp, c_plus, c_minus = coeff[:, 0], coeff[:, 1], coeff[:, 2], coeff[:, 3]
    f = np.empty((2, 2) + vt.shape, dtype=complex)
    f[0, 0] = 1.0j * (energy - vt - vsp)
    f[0, 1] = -1.0j * c_plus
    f[1, 0] = 1.0j * c_minus
    f[1, 1] = -1.0j * (energy - vt + vsp)
    start, middle, end = f[:, :, 0], f[:, :, 1], f[:, :, 2]
    eye = np.eye(2)[:, :, None, None]
    k2 = _mul(middle, eye + (0.5 * dx) * start)
    k3 = _mul(middle, eye + (0.5 * dx) * k2)
    k4 = _mul(end, eye + dx * k3)
    steps = eye + (dx / 6.0) * (start + 2.0 * k2 + 2.0 * k3 + k4)
    return steps.reshape(2, 2, -1)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices held as (2, 2, ...), written entrywise."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """P_last ... P_0 of a (2, 2, K) stack, up to a positive factor.

    A pairwise tree: each level multiplies neighbours in one batched product,
    so there are about log2 K levels.  Every partial product is divided by
    its largest entry, which keeps the amplitudes of a growing solution far
    from overflow; callers use the product only up to scale.
    """
    while steps.shape[-1] > 1:
        odd = steps.shape[-1] % 2
        paired = _mul(steps[..., 1::2], steps[..., : steps.shape[-1] - odd : 2])
        if odd:
            paired = np.concatenate([paired, steps[..., -1:]], axis=-1)
        steps = paired / np.abs(paired).max(axis=(0, 1))
    return steps[..., 0]


def _trajectory(steps: np.ndarray, substeps: int, y0: np.ndarray) -> np.ndarray:
    """Apply the step matrices in turn, recording the state at every node.

    One sequential pass in Python complex scalars.  The whole trajectory is
    rescaled whenever the running amplitude overflows toward 1e150; only the
    shape matters, and earlier exponentially small values flushing to zero
    is harmless.
    """
    intervals = steps.shape[-1] // substeps
    rows = np.moveaxis(steps, -1, 0).reshape(intervals, substeps, 2, 2).tolist()
    out = np.empty((intervals + 1, 2), dtype=complex)
    p, m = (complex(v) for v in y0)
    out[0] = p, m
    for i, row in enumerate(rows):
        for (a, b), (c, d) in row:
            p, m = a * p + b * m, c * p + d * m
        big = max(abs(p), abs(m))
        if big > 1e150:
            p, m = p / big, m / big
            out[: i + 1] /= big
        out[i + 1] = p, m
    return out


def _muller_step(za: complex, zb: complex, zc: complex,
                 fa: complex, fb: complex, fc: complex) -> complex:
    """One step of Muller's method (quadratic through three points)."""
    h1 = zb - za
    h2 = zc - zb
    d1 = (fb - fa) / h1
    d2 = (fc - fb) / h2
    a = (d2 - d1) / (h2 + h1)
    b = a * h2 + d2
    disc = np.sqrt(b * b - 4.0 * fc * a) if a != 0 else 0.0
    den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
    if den == 0:
        raise ConvergenceError("matching determinant is degenerate (flat) near the guess")
    return zc - 2.0 * fc / den


def _converged(z_prev: complex, f_prev: complex, z: complex, f: complex,
               tol: float) -> bool:
    """Root-search stop test, relative to the local slope of the determinant.

    True when the step just taken, or the secant step through the last two
    points, is below tol * max(1, |z|).  A fixed bound on |det| would not do:
    on a strongly non-Hermitian problem |det| stays below 1e-12 across wide
    regions, and the search would stop there short of the root.
    """
    scale = tol * max(1.0, abs(z))
    if abs(z - z_prev) < scale or f == 0.0:
        return True
    return f != f_prev and abs(f * (z - z_prev) / (f - f_prev)) < scale


def shooting_solve(grid: Grid1D, pot: LorentzPotential, mass: GridFunction,
                   energy_guess: complex, *, substeps: int = 2,
                   search_radius: Optional[float] = None) -> ShootingResult:
    """Bound state near energy_guess by two-sided shooting.

    Integrates trial solutions from both walls to the midpoint node with the
    boundary convention phi_plus(wall) = 0 and finds E where the two match,
    i.e. where det[u_left(mid), u_right(mid)] = 0 (determinant normalized by
    the segment amplitudes).  Root search is secant for a real guess and
    Muller for a complex one; both work on the full complex determinant and
    stop when the step is below SHOOTING_TOL relative to |E| (see
    _converged), failing after SHOOTING_MAX_ITER steps with the last |det|
    and the last relative step, i.e. the accuracy the search did reach.

    Off-node coefficients are cubic splines of the sampled channels,
    tabulated once per solve at every RK4 stage (see _coefficient_table);
    their error is O(h^4), the order of the integrator.  Each trial energy
    forms the RK4 substep matrices of both segments (_step_matrices) and
    only their ordered products (_ordered_product), which give the two
    midpoint states up to scale.  The spinor at the converged energy comes
    from one sequential pass over the same matrices (_trajectory).
    """
    if grid.boundary != "dirichlet":
        raise GridError("shooting requires a dirichlet grid")
    if substeps < 1:
        raise GridError("substeps must be >= 1")
    energy_guess = complex(energy_guess)
    radius = (search_radius if search_radius is not None
              else 10.0 * max(1.0, abs(energy_guess)))

    mid = grid.n_points // 2
    xs_left = grid.nodes[: mid + 1]
    xs_right = grid.nodes[mid:][::-1]
    table_left = _coefficient_table(xs_left, pot, mass, substeps)
    table_right = _coefficient_table(xs_right, pot, mass, substeps)
    dx_left = np.diff(xs_left)[:, None] / substeps
    dx_right = np.diff(xs_right)[:, None] / substeps
    y_wall = np.array([0.0, 1.0], dtype=complex)

    def step_matrices(energy: complex) -> tuple[np.ndarray, np.ndarray]:
        return (_step_matrices(energy, table_left, dx_left),
                _step_matrices(energy, table_right, dx_right))

    def det_at(energy: complex) -> complex:
        # y_wall = (0, 1): the midpoint state is the second column
        ul, ur = (_ordered_product(steps)[:, 1] for steps in step_matrices(energy))
        denom = np.linalg.norm(ul) * np.linalg.norm(ur)
        if denom == 0.0:
            raise ConvergenceError("trial solution vanished; matching determinant degenerate")
        return (ul[0] * ur[1] - ul[1] * ur[0]) / denom

    step0 = 1e-4 * max(1.0, abs(energy_guess))
    if energy_guess.imag == 0.0:
        zs = [energy_guess, energy_guess + step0]
    else:
        zs = [energy_guess - step0, energy_guess + step0 * 1.0j, energy_guess]
    fs = [det_at(z) for z in zs]
    for iterations in range(1, SHOOTING_MAX_ITER + 1):
        if len(zs) == 3:
            z = _muller_step(*zs, *fs)
        elif fs[1] == fs[0]:
            raise ConvergenceError("matching determinant is degenerate (flat) near the guess")
        else:
            z = zs[1] - fs[1] * (zs[1] - zs[0]) / (fs[1] - fs[0])
        if abs(z - energy_guess) > radius:
            raise ConvergenceError(
                f"no root within radius {radius:g} of guess {energy_guess:g}"
            )
        zs, fs = zs[1:] + [z], fs[1:] + [det_at(z)]
        if _converged(zs[-2], fs[-2], zs[-1], fs[-1], SHOOTING_TOL):
            break
    else:
        step = abs(zs[-1] - zs[-2]) / max(1.0, abs(zs[-1]))
        raise ConvergenceError(
            f"shooting did not converge in {SHOOTING_MAX_ITER} iterations "
            f"(last |det|={abs(fs[-1]):.3e}, "
            f"last step |dE|/max(1,|E|)={step:.3e}, tol={SHOOTING_TOL:g})"
        )
    e1, f1 = zs[-1], fs[-1]

    # assemble the matched global spinor at the converged energy
    left, right = (_trajectory(steps, substeps, y_wall)
                   for steps in step_matrices(e1))
    right = right[::-1]
    ul, ur = left[-1], right[0]
    c = int(np.argmax(np.abs(ur)))
    if ur[c] == 0.0:
        raise ConvergenceError("right segment vanished at the midpoint")
    ratio = ul[c] / ur[c]
    values = np.vstack([left, (right * ratio)[1:]])
    mismatch = float(np.linalg.norm(ul - ratio * ur) / max(np.linalg.norm(ul), 1e-300))
    spinor = Spinor(grid=grid, plus_component=values[:, 0],
                    minus_component=values[:, 1], energy=e1)
    return ShootingResult(energy=e1, spinor=spinor, iterations=iterations,
                          determinant=f1, match_mismatch=mismatch)
