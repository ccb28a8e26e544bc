"""Eigenvalue solvers: dense matrix diagonalization and two-sided shooting.

The matrix path hands an exactly Hermitian operator to LAPACK's Hermitian
eigensolver and any other (e.g. PT-symmetric) operator to the general one,
and wraps either output in checked form, ordered by one rule that does not
depend on which routine ran or on rounding: a SpectrumResult holding the
operator, the energies and the kept states as one (K, n, 2) stack.  The
shooting path integrates the coupled first-order system from both walls with
classical RK4 and drives the 2x2 matching determinant at the midpoint to
zero, which gives continuum (not lattice) eigenvalues.  The system is linear
in the state, phi' = i sigma_z (E - h(x)) phi with h the local block of
lorentz.local_blocks, so each RK4 substep is a 2x2 matrix: a trial energy
builds all of them in batched array expressions and the midpoint states are
their ordered products, formed as a pairwise tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConvergenceError, GridError
from .grid import Grid1D, GridFunction
from .hamiltonian import DiracOperator, hermiticity_of_operator
from .lorentz import LorentzPotential, local_blocks

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
    """Sorted eigenpairs of one operator with residuals and reality tags.

    energies is (K,); states is (K, n, 2), state k's components at every grid
    node (zero at hard walls).  Both read-only; eigenpairs is a Spinor view.
    """

    operator: DiracOperator
    energies: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    classification: tuple[str, ...]
    solver_tolerance: float

    def __post_init__(self) -> None:
        for name in ("energies", "states"):  # read-only views, no copies
            view = np.asarray(getattr(self, name), dtype=complex).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if self.states.shape != (len(self.energies), self.grid.n_points, 2):
            raise GridError("states must be a (K, n_points, 2) stack of K energies")

    @property
    def grid(self) -> Grid1D:
        return self.operator.grid

    @cached_property
    def eigenpairs(self) -> tuple[Spinor, ...]:
        """The states one Spinor at a time, for the per-state functions
        (normalize, current_density) and for perfbench's tracer, which counts
        the kept pairs with it; the report pipeline reads states directly."""
        return tuple(Spinor(grid=self.grid, plus_component=s[:, 0],
                            minus_component=s[:, 1], energy=e)
                     for e, s in zip(self.energies, self.states))


def _is_real(energies: np.ndarray, tol: float) -> np.ndarray:
    """The reality test: |Im E| <= tol * max(1, |Re E|), elementwise."""
    return np.abs(energies.imag) <= tol * np.maximum(1.0, np.abs(energies.real))


def _canonical_order(energies: np.ndarray, tol: float) -> np.ndarray:
    """Indices that put energies in the solver's report order.

    Sort by |Re E|; consecutive values whose gap is at most
    tol * max(1, |Re E|) form one tie class, so +-E partners, whose |Re E|
    differ only by rounding, share a class.  Inside a class -E comes before
    +E, then Im E ascends, then Re E.  Ordering by the sign of Re E rather
    than by its value keeps conjugate partners a +- ib, whose real parts also
    differ only by rounding, in Im order.
    """
    mag = np.abs(energies.real)
    by_mag = np.argsort(mag, kind="stable")
    m = mag[by_mag]
    starts = np.diff(m) > tol * np.maximum(1.0, m[1:])
    tie_class = np.concatenate(([0], np.cumsum(starts)))
    e = energies[by_mag]
    return by_mag[np.lexsort((e.real, e.imag, np.sign(e.real), tie_class))]


def solve_spectrum(op: DiracOperator, tol: float = 1e-9, max_pairs: int = 12,
                   reality_tol: float = 1e-9) -> SpectrumResult:
    """Diagonalize, snap real levels, order canonically, keep max_pairs.

    An exactly Hermitian matrix (H == H^dagger entry for entry) goes to
    LAPACK's Hermitian eigensolver, anything else to the general one: the
    Hermitian routine reads one triangle only and would drop an
    anti-Hermitian part of any size.  Levels that pass the reality test of
    classify_reality get Im E = 0 exactly, then _canonical_order picks the
    lowest max_pairs.  Every returned pair is residual-checked against
    LAPACK's own eigenvalue: ||H v - E v||_2 / ||v||_2 must not exceed tol,
    otherwise the solve is reported as non-converged with the offending
    residuals listed.  The kept eigenvector columns land, unnormalized, in
    one (K, n, 2) states stack; normalization lives in the diagnostics layer.
    """
    if max_pairs < 1:
        raise GridError(f"max_pairs must be positive, got {max_pairs}")
    h = op.matrix
    if hermiticity_of_operator(op) == 0.0:
        w, v = np.linalg.eigh(h)
    else:
        w, v = np.linalg.eig(h)
    energies = w.astype(complex)
    energies.imag[_is_real(energies, reality_tol)] = 0.0
    keep = _canonical_order(energies, reality_tol)[:max_pairs]

    vk = v[:, keep]
    del v  # free the full eigenvector matrix before the stack is allocated
    residuals = (np.linalg.norm(h @ vk - vk * w[keep], axis=0)
                 / np.linalg.norm(vk, axis=0))
    bad = np.nonzero(residuals > tol)[0]
    if bad.size:
        detail = ", ".join(
            f"E={energies[keep[i]]:.6g} residual={residuals[i]:.3e}" for i in bad
        )
        raise ConvergenceError(
            f"eigensolver residuals exceed tol={tol:g} for {bad.size} pair(s): {detail}"
        )
    # column layout [plus(active nodes), minus(active nodes)] -> (K, n, 2)
    states = np.zeros((len(keep), op.grid.n_points, 2), dtype=complex)
    states[:, op.active_index] = vk.T.reshape(len(keep), 2, -1).transpose(0, 2, 1)
    result = SpectrumResult(
        operator=op, energies=energies[keep], states=states, residuals=residuals,
        classification=("real",) * len(keep), solver_tolerance=float(tol),
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
    is_real = _is_real(e, tol)
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
    """The local block h = gamma0 (M + V) at every RK4 stage along xs.

    Shape (len(xs) - 1, substeps, 3, 2, 2): for each node interval and
    substep, h at its start, middle and end.  Off-node values come from one
    cubic spline of lorentz.local_blocks (its O(h^4) error matches the
    integrator order; a constant entry comes out exactly).  Nothing here
    depends on the trial energy, so one table serves the whole root search:
    _step_matrices turns it into the substep matrices of each trial energy.
    """
    x = xs[:-1, None]
    dx = (xs[1:, None] - x) / substeps
    xa = x + np.arange(substeps) * dx
    stages = np.stack([xa, xa + 0.5 * dx, xa + dx], axis=-1)
    # scipy is imported here, so that only a process that shoots loads it
    from scipy.interpolate import CubicSpline
    return CubicSpline(mass.grid.nodes, local_blocks(pot, mass))(stages)


def _step_matrices(energy: complex, table: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The RK4 substeps of one segment as matrices: phi <- P phi, in order.

    The system phi' = F(x) phi is linear, with F = i sigma_z (E - h) for the
    local block h, so one classical RK4 substep is exactly
    P = I + dx/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = F_start,
    K2 = F_mid (I + dx/2 K1), K3 = F_mid (I + dx/2 K2), K4 = F_end (I + dx K3).
    table is _coefficient_table(xs, ...) and dx the (len(xs) - 1, 1) substep
    widths.  Returns a (2, 2, (len(xs) - 1) * substeps) stack, substep j of
    interval i at i * substeps + j.
    """
    h = table.transpose(3, 4, 2, 0, 1)  # (row, col, stage, N, substeps) view
    # a fresh C-contiguous, stage-major array, not empty_like(h): the
    # products below run slower on the view's strided layout
    f = np.empty(h.shape, dtype=complex)
    f[0, 0] = 1.0j * (energy - h[0, 0])
    f[0, 1] = -1.0j * h[0, 1]
    f[1, 0] = 1.0j * h[1, 0]
    f[1, 1] = -1.0j * (energy - h[1, 1])
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

    Off-node coefficients are a cubic spline of the sampled local blocks
    (lorentz.local_blocks), tabulated once per solve at every RK4 stage (see
    _coefficient_table); their error is O(h^4), the order of the integrator.  Each trial energy
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
