"""Eigenvalue solvers: dense matrix diagonalization and two-sided shooting.

The matrix path hands an exactly Hermitian operator to LAPACK's Hermitian
eigensolver and any other (e.g. PT-symmetric) operator to the general one,
and wraps either output in checked form, ordered by one rule that does not
depend on which routine ran or on rounding: a SpectrumResult holding the
operator, the energies and the kept states as one (K, n, 2) stack.  The
Hermitian routine works in the spinor basis rotated by
U = (1 - i sigma_1)/sqrt(2), which maps sigma_3 to sigma_2 and sigma_2 to
-sigma_3: there -i sigma_3 d/dx is real, and so is the whole operator when
the mass and the scalar, time-vector and pseudoscalar channels are real and
the space-vector channel vanishes (the real Hermitian baseline, on either
boundary, with or without the Wilson term).  Such an operator takes LAPACK's
real symmetric eigensolver; a Hermitian one with a space-vector part, the
complex Hermitian one.

The shooting path integrates the coupled first-order system from both walls
with classical RK4 and drives the 2x2 matching determinant at the midpoint to
zero, which gives continuum (not lattice) eigenvalues.  The system is linear
in the state, phi' = i sigma_z (E - h(x)) phi with h the local block of
lorentz.local_blocks, so each RK4 substep is a 2x2 matrix, and a quartic in
E.  Its five coefficients are built once per operator from one spline call
on the local blocks, for both segments in one stack: the shorter segment is
padded with its last node, and its zero-width substeps are exact identity
steps.  The last build is kept for the next solve on the same nodes, blocks
and substeps.  A trial energy evaluates them by Horner's rule in place, and
the two midpoint states are the ordered products of the substeps, formed as
one pairwise tree over both segments.  The converged state, an (n, 2) array,
comes from a log-depth prefix scan over per-node matrices, with power-of-two
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, GridError
from .grid import Grid1D, GridFunction, _is_a
from .hamiltonian import DiracOperator, blocks_on_grid, hermiticity_of_operator
from .lorentz import LorentzPotential

# shooting root search: stop when the step is below SHOOTING_TOL relative to
# |E| (see _converged); give up after SHOOTING_MAX_ITER steps
SHOOTING_TOL = 1e-12
SHOOTING_MAX_ITER = 60


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenpairs of one operator with residuals and reality tags.

    energies is (K,); states is (K, n, 2), state k's components at every grid
    node (zero at hard walls).  Both read-only.
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

    @property
    def eigenpairs(self) -> tuple[tuple[complex, np.ndarray], ...]:
        """(energy, state) per kept pair.  Only the benchmark tracer
        (perfbench/tracing.py) reads it, as len(result.eigenpairs); it goes
        when the tracer counts len(result.energies) (ROADMAP item 7)."""
        return tuple(zip(self.energies, self.states))


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


def _rotated(h: np.ndarray, real: bool) -> np.ndarray:
    """U^dagger H U for U = (1 - i sigma_1)/sqrt(2), its real part if real.

    With H = [[A, B], [C, D]] in K x K blocks of the [plus, minus] layout,
    U^dagger H U = 1/2 [[A + D + i(C - B), B + C - i(A - D)],
                        [B + C + i(A - D), A + D - i(C - B)]].
    For an exactly Hermitian H this is exactly Hermitian too.  The kinetic,
    Wilson, mass, scalar, time-vector and pseudoscalar parts rotate to real
    entries, so its imaginary part is exactly zero when every active block
    has h00 == h11, i.e. no space-vector channel; the caller reads that from
    the blocks and passes it as real.
    """
    k = h.shape[0] // 2
    a, b, c, d = h[:k, :k], h[:k, k:], h[k:, :k], h[k:, k:]
    s, t = 0.5 * (a + d), 0.5j * (c - b)
    u, v = 0.5 * (b + c), 0.5j * (a - d)
    m = np.block([[s + t, u - v], [u + v, s - t]])
    return m.real if real else m


def _unrotated(u: np.ndarray) -> np.ndarray:
    """sqrt(2) U u for eigenvector columns u of _rotated(H): the same
    eigenvectors of H in the [plus, minus] layout.  sqrt(2) U has entries 1
    and -i only, so nothing is rounded; the scale of a column is left to
    normalization."""
    k = u.shape[0] // 2
    top, bot = u[:k], u[k:]
    return np.concatenate([top - 1j * bot, bot - 1j * top])


# an operator that overflows in the solve gives NaN residuals, which fail the
# residual gate
@np.errstate(over="ignore", invalid="ignore")
def solve_spectrum(op: DiracOperator, tol: float = 1e-9, max_pairs: int = 12,
                   reality_tol: float = 1e-9) -> SpectrumResult:
    """Diagonalize, snap real levels, order canonically, keep max_pairs.

    An exactly Hermitian operator (hermiticity_of_operator == 0: every
    active block equals its conjugate transpose) goes to LAPACK's
    Hermitian eigensolver, anything else to the general one: the
    Hermitian routine reads one triangle only and would drop an
    anti-Hermitian part of any size.  The Hermitian routine gets H in the
    rotated spinor basis (_rotated), which is real exactly when every active
    block has h00 == h11 (no space-vector channel), so those operators take
    the real symmetric routine; the kept columns are rotated back
    (_unrotated).  The general routine gets op.matrix itself.  Levels that
    pass the reality test (_is_real) get Im E = 0 exactly, then
    _canonical_order picks the lowest max_pairs, and _reality_tags tags them.
    max_pairs must be an integer >= 1.  Every returned pair is
    residual-checked against op.matrix and LAPACK's own eigenvalue:
    ||H v - E v||_2 / ||v||_2 must be at most tol (a NaN residual is not),
    otherwise the solve is reported as non-converged with the offending
    residuals listed.  tol must be finite and positive, reality_tol finite
    and non-negative.  The kept eigenvector columns land, unnormalized, in
    one (K, n, 2) states stack; normalization lives in the diagnostics layer.
    """
    if not (_is_a(max_pairs, int, np.integer) and max_pairs >= 1):
        raise GridError(f"max_pairs must be an integer >= 1, got {max_pairs!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise GridError(f"tol must be finite and positive, got {tol}")
    if not (np.isfinite(reality_tol) and reality_tol >= 0):
        raise GridError(f"reality_tol must be finite and non-negative, got {reality_tol}")
    h = op.matrix
    hermitian = hermiticity_of_operator(op) == 0.0
    if hermitian:  # the rotated matrix lives only as eigh's argument
        real = np.array_equal(op.blocks[:, 0, 0], op.blocks[:, 1, 1])
        w, v = np.linalg.eigh(_rotated(h, real))
    else:
        w, v = np.linalg.eig(h)
    energies = w.astype(complex)
    energies.imag[_is_real(energies, reality_tol)] = 0.0
    keep = _canonical_order(energies, reality_tol)[:max_pairs]

    vk = v[:, keep]
    del v  # free the full eigenvector matrix before the stack is allocated
    if hermitian:
        vk = _unrotated(vk)
    residuals = (np.linalg.norm(h @ vk - vk * w[keep], axis=0)
                 / np.linalg.norm(vk, axis=0))
    bad = np.nonzero(~(residuals <= tol))[0]  # NaN fails too
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
    kept = energies[keep]
    return SpectrumResult(
        operator=op, energies=kept, states=states, residuals=residuals,
        classification=_reality_tags(kept, reality_tol), solver_tolerance=float(tol),
    )


def _reality_tags(e: np.ndarray, tol: float) -> tuple[str, ...]:
    """Tag each eigenvalue real / conjugate-pair member / unpaired complex.

    Real means |Im E| <= tol * max(1, |Re E|).  The remaining eigenvalues are
    greedily matched against their complex conjugates within the same
    tolerance; leftovers are tagged complex_unpaired (which typically means
    the partner fell outside the retained low-|Re| window, not a bug).
    """
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
    return tuple(str(t) for t in tags)


@dataclass(frozen=True)
class ShootingResult:
    """A shooting eigenpair: state is the read-only (n, 2) array of both
    components at every grid node, scaled to match at the midpoint."""

    energy: complex
    state: np.ndarray
    iterations: int
    determinant: complex
    match_mismatch: float


def _coefficient_table(segments: tuple, spline: Callable[[np.ndarray], np.ndarray],
                       substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The local block h = gamma0 (M + V) at every RK4 stage of every segment.

    segments holds each segment's abscissas from its wall inward; a shorter
    one is padded with its last node, so its extra substeps have zero width
    (exact identity steps in _step_polynomial).  Returns the (3, 2, 2, S * W)
    table of h at the start, middle and end of every substep, substep j of
    interval i of segment s at s * W + i * substeps + j, and the (S * W,)
    substep widths.  spline is the solve's one cubic spline of
    lorentz.local_blocks over the full grid (its O(h^4) error matches the
    integrator order; a constant entry comes out exactly), called once.
    """
    length = max(len(xs) for xs in segments)
    xs = np.stack([np.pad(xs, (0, length - len(xs)), mode="edge") for xs in segments])
    x = xs[:, :-1, None]
    dx = (xs[:, 1:, None] - x) / substeps
    xa = x + np.arange(substeps) * dx
    dx = np.broadcast_to(dx, xa.shape)
    h = spline(np.concatenate([xa, xa + 0.5 * dx, xa + dx]).ravel())
    table = np.ascontiguousarray(h.reshape(3, -1, 2, 2).transpose(0, 2, 3, 1))
    return table, dx.ravel()


# i sigma_z as a row sign, for (2, 2, ...) stacks: _J * a is i sigma_z @ a
_J = np.array([1.0j, -1.0j]).reshape(2, 1, 1)
_EYE = np.identity(2).reshape(2, 2, 1)


def _times_f(b: np.ndarray, poly: list) -> list:
    """(E i sigma_z + b) @ poly for a matrix polynomial in E.

    poly lists the coefficients of E^0, E^1, ... as (2, 2, ...) stacks.
    """
    out = [_mul(b, c) for c in poly] + [_J * poly[-1]]
    for k, c in enumerate(poly[:-1]):
        out[k + 1] += _J * c
    return out


def _plus_eye(scale: np.ndarray, poly: list) -> list:
    """I + scale * poly."""
    first = scale * poly[0]
    first += _EYE
    return [first] + [scale * c for c in poly[1:]]


def _step_polynomial(table: np.ndarray, dx: np.ndarray) -> tuple:
    """RK4 substeps as a quartic in the trial energy.

    The system phi' = F(x) phi is linear, with F = E i sigma_z + B and
    B = -i sigma_z h for the local block h, so one classical RK4 substep is
    exactly the matrix P = I + dx/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = F_start, K2 = F_mid (I + dx/2 K1), K3 = F_mid (I + dx/2 K2) and
    K4 = F_end (I + dx K3), a polynomial of degree 4 in E, and the identity
    when dx = 0.  table and dx are _coefficient_table's.  Returns
    (C0, ..., C4), each a (2, 2, len(dx)) stack with
    P(E) = C0 + E C1 + ... + E^4 C4; _evaluate_steps forms P(E).

    Sums are accumulated in place, which rounds as the written expression
    does, since a sum commutes exactly; a complex product keeps its operand
    order, since numpy's vector loop fuses one of its two terms.
    """
    start, middle, end = (-_J * h for h in table)
    k1 = [start, _J * _EYE]
    k2 = _times_f(middle, _plus_eye(0.5 * dx, k1))
    k3 = _times_f(middle, _plus_eye(0.5 * dx, k2))
    k4 = _times_f(end, _plus_eye(dx, k3))
    sixth = dx / 6.0
    steps = []
    for c1, c2, c3, c4 in zip_longest(k1, k2, k3, k4, fillvalue=0.0):
        # (c1 + 2 c2 + 2 c3 + c4) dx / 6; a 0.0 past the end of k1, k2 or k3
        # is still added, which turns -0.0 into 0.0 as the written sum does
        total = 2.0 * c2
        for term in (c1, 2.0 * c3, c4):
            total = total + term if np.isscalar(total) else np.add(total, term, out=total)
        steps.append(np.multiply(sixth, total, out=total))
    steps[0] += _EYE
    return tuple(steps)


# the last build of _step_quartics, as (key, stacks); replaced whole, never
# written into, so concurrent solves share nothing writable
_last_build: tuple = (None, ())


def _step_quartics(nodes: np.ndarray, blocks: np.ndarray, substeps: int) -> tuple:
    """The five read-only (2, 2, 2, W) step-quartic stacks of both segments,
    W = (n // 2) * substeps: one spline of the blocks, one table, one quartic.

    The last build is kept, and returned again while the nodes and the
    blocks are the same bit for bit (their bytes are the key, so 0.0 and
    -0.0 differ) and substeps is equal: 640 W bytes, plus a 72 n-byte key.
    """
    global _last_build
    key = (nodes.tobytes(), blocks.tobytes(), substeps)
    last_key, poly = _last_build
    if last_key == key:
        return poly
    # scipy is imported here, so that only a process that shoots loads it
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(nodes, blocks)
    mid = len(nodes) // 2
    segments = (nodes[: mid + 1], nodes[mid:][::-1])
    poly = tuple(c.reshape(2, 2, 2, -1) for c in
                 _step_polynomial(*_coefficient_table(segments, spline, substeps)))
    for c in poly:
        c.flags.writeable = False
    _last_build = (key, poly)
    return poly


def _evaluate_steps(poly: tuple, energy: complex, out: np.ndarray) -> np.ndarray:
    """P(energy) of a step quartic by Horner's rule, written into out."""
    np.multiply(poly[-1], energy, out=out)
    for c in poly[-2:0:-1]:
        out += c
        out *= energy
    out += poly[0]
    return out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices held as (2, 2, ...), written entrywise."""
    out = a[:, :1] * b[:1]
    out += a[:, 1:] * b[1:]
    return out


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """P_last ... P_0 along the last axis of a (2, 2, ..., K) stack, up to a
    positive factor per product.

    A pairwise tree: each level multiplies neighbours in one batched product,
    so there are about log2 K levels.  Every partial product is divided by
    its largest entry, which keeps the amplitudes of a growing solution far
    from overflow; callers use the product only up to scale.  The axes
    between the matrix axes and the last one (the shooter's segment axis)
    are independent products.
    """
    while steps.shape[-1] > 1:
        odd = steps.shape[-1] % 2
        paired = _mul(steps[..., 1::2], steps[..., : steps.shape[-1] - odd : 2])
        if odd:
            paired = np.concatenate([paired, steps[..., -1:]], axis=-1)
        steps = paired / np.abs(paired).max(axis=(0, 1))
    return steps[..., 0]


# a segment whose amplitude reaches 2**_RESCALE_EXPONENT (about 1e150) is
# divided by a power of two that brings its largest state below 1
_RESCALE_EXPONENT = 498


def _scale_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a / 2**k into out, with k per matrix of a (2, 2, ...) stack such
    that each matrix's largest entry lies in [0.5, 1); returns k.

    np.ldexp scales the real and imaginary parts exactly, and no factor
    2**k, which need not be a double, is ever formed.
    """
    _, k = np.frexp(np.abs(a).max(axis=(0, 1)))
    np.ldexp(a.real, -k, out=out.real)
    np.ldexp(a.imag, -k, out=out.imag)
    return k


def _trajectory(steps: np.ndarray, substeps: int, y0: np.ndarray) -> np.ndarray:
    """The state at every node of every segment, from a (2, 2, S, W) stack.

    Each interval's substeps are first multiplied into one node matrix, for
    all S segments at once.  A Hillis-Steele prefix scan then gives every
    node's ordered product N_k ... N_0 in about log2(W / substeps) batched
    levels.  Each prefix is held as a matrix scaled into [0.5, 1) and a
    power of two (_scale_into), whose exponents add exactly in int64, so no
    prefix overflows.  The powers reach the states through np.ldexp at the
    end.  A segment whose amplitude reaches 2**_RESCALE_EXPONENT is divided
    as a whole by the power of two of its largest state; only the shape
    matters, and exponentially small values near its wall flushing to zero
    is harmless.  Returns (S, W / substeps + 1, 2), y0 first; a segment's
    identity padding repeats its last state.
    """
    by_node = steps.reshape(steps.shape[:-1] + (-1, substeps))
    nodes = by_node[..., 0]
    for j in range(1, substeps):
        nodes = _mul(by_node[..., j], nodes)
    # an identity in front makes prefix k the map from y0 to node k
    prefix = np.empty(nodes.shape[:-1] + (nodes.shape[-1] + 1,), dtype=complex)
    prefix[..., 0] = _EYE
    power = np.zeros(prefix.shape[2:], dtype=np.int64)
    power[..., 1:] = _scale_into(nodes, prefix[..., 1:])
    shift = 1
    while shift < prefix.shape[-1]:
        prod = _mul(prefix[..., shift:], prefix[..., :-shift])
        power[..., shift:] += power[..., :-shift] + _scale_into(prod, prefix[..., shift:])
        shift *= 2
    states = prefix[:, 0] * y0[0] + prefix[:, 1] * y0[1]
    top = (power + np.frexp(np.abs(states).max(axis=0))[1]).max(axis=-1, keepdims=True)
    power -= np.where(top > _RESCALE_EXPONENT, top, 0)
    out = np.empty(power.shape + (2,), dtype=complex)
    np.ldexp(states.real, power, out=np.moveaxis(out.real, -1, 0))
    np.ldexp(states.imag, power, out=np.moveaxis(out.imag, -1, 0))
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
    mass and pot must live on grid, energy_guess must be a finite number,
    substeps an integer >= 1 and search_radius, when given, a finite positive
    real number; anything else is a GridError.

    Everything that does not depend on the trial energy is built once per
    operator (_step_quartics): the last build is kept, and a solve whose
    nodes, local blocks and substeps are those of that build, compared bit
    for bit, reuses it, so it returns bit for bit what a solve that builds
    returns.  Off-node coefficients come from one cubic spline of the sampled
    local blocks (lorentz.local_blocks), tabulated at every RK4 stage of
    both segments by one spline call (_coefficient_table); their error is
    O(h^4), the order of the integrator.  The shorter segment, the right one
    when n is even, is padded with its last node, so its extra substeps have
    zero width.  Each RK4 substep matrix is a quartic in E, whose five
    coefficient stacks are expanded from the table once, for both segments
    together (_step_polynomial), and viewed as (2, 2, 2, W) stacks, W the
    longer segment's substep count; a zero-width substep is an exact identity
    step.  A trial energy then costs four in-place Horner steps into one
    buffer reused across trials (_evaluate_steps) and one pairwise tree
    product over both segments (_ordered_product), which gives the two
    midpoint states up to scale.  The padding changes no product, and the
    tree is bit for bit the unpadded one unless the padding adds a tree
    level, where it moves the product by about one ulp.  The state at the
    converged energy comes from the same matrices, multiplied into one
    matrix per node interval, and a prefix scan over those in about log2 n
    batched levels, each prefix scaled by an exact power of two
    (_trajectory); the padded nodes are sliced off, and the matched nodes
    are ShootingResult.state.
    """
    if grid.boundary != "dirichlet":
        raise GridError("shooting requires a dirichlet grid")
    if not (_is_a(substeps, int, np.integer) and substeps >= 1):
        raise GridError(f"substeps must be an integer >= 1, got {substeps!r}")
    if not (_is_a(energy_guess, complex, float, int, np.number)
            and np.isfinite(energy_guess)):
        raise GridError(f"energy_guess must be finite, got {energy_guess!r}")
    energy_guess = complex(energy_guess)
    radius = (search_radius if search_radius is not None
              else 10.0 * max(1.0, abs(energy_guess)))
    if not (_is_a(radius, float, int, np.integer, np.floating)
            and np.isfinite(radius) and radius > 0.0):
        raise GridError(f"search_radius must be finite and positive, got {radius!r}")
    radius = float(radius)

    poly = _step_quartics(grid.nodes, blocks_on_grid(grid, pot, mass), substeps)
    mid = grid.n_points // 2
    buf = np.empty_like(poly[0])
    y_wall = np.array([0.0, 1.0], dtype=complex)

    def det_at(energy: complex) -> complex:
        # y_wall = (0, 1): the midpoint states are the second columns
        ul, ur = _ordered_product(_evaluate_steps(poly, energy, buf))[:, 1].T
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

    # assemble the matched global state at the converged energy
    paths = _trajectory(_evaluate_steps(poly, e1, buf), substeps, y_wall)
    left, right = paths[0, : mid + 1], paths[1, : grid.n_points - mid][::-1]
    ul, ur = left[-1], right[0]
    c = int(np.argmax(np.abs(ur)))
    if ur[c] == 0.0:
        raise ConvergenceError("right segment vanished at the midpoint")
    ratio = ul[c] / ur[c]
    state = np.vstack([left, (right * ratio)[1:]])
    state.flags.writeable = False
    mismatch = float(np.linalg.norm(ul - ratio * ur) / max(np.linalg.norm(ul), 1e-300))
    return ShootingResult(energy=e1, state=state, iterations=iterations,
                          determinant=f1, match_mismatch=mismatch)
