"""Eigenvalue solvers: dense matrix diagonalization and two-sided shooting.

The matrix path solves an exactly Hermitian operator in a rotated spinor
basis and hands any other (e.g. PT-symmetric) operator to LAPACK's general
eigensolver, and wraps the output in checked form, ordered by one rule that
does not depend on which routine ran or on rounding: a SpectrumResult
holding the operator, the energies and the kept states as one (K, n, 2)
stack.  The rotation is U = (1 - i sigma_1)/sqrt(2), which maps sigma_3 to
sigma_2 and sigma_2 to -sigma_3: there -i sigma_3 d/dx is real, and so is
the whole operator when the mass and the scalar, time-vector and
pseudoscalar channels are real and the space-vector channel vanishes (the
real Hermitian baseline, on either boundary, with or without the Wilson
term).  When only the mass, scalar and space-vector channels are present,
H anticommutes with sigma_y, the rotated matrix is [[0, A], [A^H, 0]] in
K x K blocks, and one SVD of A gives the levels +-s, exact zero modes
chirality-pure.  Any other Hermitian operator takes LAPACK's Hermitian
eigensolver, real symmetric when the rotated matrix is real.  The residual
gate applies the operator's stencil from its blocks in O(K) per pair.

The shooting path integrates the coupled first-order system from both walls
with classical RK4 and drives the 2x2 matching determinant at the midpoint to
zero, which gives continuum (not lattice) eigenvalues.  The system is linear
in the state, phi' = i sigma_z (E - h(x)) phi with h the local block of
lorentz.local_blocks, so each RK4 substep is a 2x2 matrix, and a quartic in
E.  Its five coefficients are built once per operator from one spline call
on the local blocks, for both segments in one stack: the shorter segment is
padded with its last node, and its zero-width substeps are exact identity
steps.  The last build is kept for the next solve on the same nodes, blocks
and substeps.  Trial energies evaluate them by Horner's rule, the root
search's start points together, and the two midpoint states are the ordered
products of the substeps, formed as one pairwise tree over both segments and
all the energies.  The converged state, an (n, 2) array, comes from a
log-depth prefix scan over per-node matrices of the root's own substeps.  The
tree and the scan rescale by exact powers of two every 8 levels, which
changes no rounding, so no result depends on how often they rescale.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    Only the entries DiracOperator.matrix writes are read: node j with j and
    with j +- 1 mod K (the wrapped corners hold +0 on a dirichlet grid, and
    every other entry rotates to +0), so the formula runs on O(K) values
    and no K x K block is formed.  For an exactly Hermitian H this is exactly
    Hermitian too.  The kinetic, Wilson, mass, scalar, time-vector and
    pseudoscalar parts rotate to real entries, so its imaginary part is
    exactly zero when every active block has h00 == h11, i.e. no
    space-vector channel; the caller reads that from the blocks and passes
    it as real.
    """
    k = h.shape[0] // 2
    node = np.repeat(np.arange(k), 3)
    near = (node + np.tile([-1, 0, 1], k)) % k
    band = h.reshape(2, k, 2, k)[:, node, :, near]  # (3K, 2, 2)
    a, b, c, d = band[:, 0, 0], band[:, 0, 1], band[:, 1, 0], band[:, 1, 1]
    s, t = 0.5 * (a + d), 0.5j * (c - b)
    u, v = 0.5 * (b + c), 0.5j * (a - d)
    rotated = np.stack((s + t, u - v, u + v, s - t), axis=1).reshape(-1, 2, 2)
    m = np.zeros((2, k, 2, k), dtype=float if real else complex)
    m[:, node, :, near] = rotated.real if real else rotated
    return m.reshape(2 * k, 2 * k)


def _unrotated(u: np.ndarray) -> np.ndarray:
    """sqrt(2) U u for eigenvector columns u of _rotated(H): the same
    eigenvectors of H in the [plus, minus] layout.  sqrt(2) U has entries 1
    and -i only, so nothing is rounded; the scale of a column is left to
    normalization."""
    k = u.shape[0] // 2
    top, bot = u[:k], u[k:]
    return np.concatenate([top - 1j * bot, bot - 1j * top])


def _chiral_svd(a: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The 2K eigenvalues of the chiral matrix [[0, A], [A^H, 0]], from one
    SVD A = X diag(s) Y^H of its K x K block A, and what _chiral_columns
    builds the eigenvectors from.

    Eigenvalue slot i is -s_i with eigenvector (x_i, -y_i)/sqrt(2), slot
    K + i is +s_i with (x_i, y_i)/sqrt(2).  A singular value at or below
    s.max() K eps, np.linalg.matrix_rank's rule, is an exact zero mode: both
    its slots get the eigenvalue 0.0 (never -0.0), and _chiral_columns gives
    them the chirality-pure (x_i, 0) and (0, y_i), not mixtures whose
    weights rounding picks.
    """
    x, s, yh = np.linalg.svd(a)
    zero = s <= len(s) * np.finfo(s.dtype).eps * s.max()  # s.max() K overflows first
    w = np.concatenate([-s, s])
    w[np.concatenate([zero, zero])] = 0.0
    return w, (x, yh, zero)


def _chiral_columns(x: np.ndarray, yh: np.ndarray, zero: np.ndarray,
                    keep: np.ndarray) -> np.ndarray:
    """The eigenvector columns of _chiral_svd's slots keep, and only those."""
    k = len(zero)
    i, plus = keep % k, keep >= k
    top = np.full(len(keep), np.sqrt(0.5))
    bot = np.where(plus, top, -top)
    pure = zero[i]  # (x_i, 0) in slot i, (0, y_i) in slot K + i
    top[pure], bot[pure] = ~plus[pure], plus[pure]
    return np.concatenate([x[:, i] * top, yh[i].conj().T * bot])


def _applied(op: DiracOperator, v: np.ndarray) -> np.ndarray:
    """H v for columns v in the [plus, minus] layout, from op.blocks, grid.h
    and wilson_r in O(K) per column: the stencil DiracOperator.matrix
    writes, never the matrix itself.  Node j takes -+i/(2h) (v_{j+1} -
    v_{j-1}) on sigma_z, -w (v_{j+1} + v_{j-1}) in sigma_x with
    w = wilson_r/(2h), and its block plus 2w sigma_x, summed as the matrix
    sums them; neighbours wrap on a periodic grid and are zero past a wall.
    """
    k = len(op.blocks)
    x = v.reshape(2, k, -1)
    nxt, prv = np.roll(x, -1, axis=1), np.roll(x, 1, axis=1)
    if op.grid.boundary != "periodic":
        nxt[:, -1] = prv[:, 0] = 0.0
    out = -_J * (1.0 / (2.0 * op.grid.h)) * (nxt - prv)
    onsite = op.blocks
    if op.wilson_r != 0.0:
        w = op.wilson_r / (2.0 * op.grid.h)
        out -= w * (nxt + prv)[::-1]
        onsite = onsite.copy()
        onsite[:, [0, 1], [1, 0]] += 2.0 * w
    d = onsite.transpose(1, 2, 0)[..., None]  # (2, 2, K, 1)
    out += d[:, 0] * x[0] + d[:, 1] * x[1]
    return out.reshape(2 * k, -1)


# an operator that overflows in the solve gives NaN residuals, which fail the
# residual gate
@np.errstate(over="ignore", invalid="ignore")
def solve_spectrum(op: DiracOperator, tol: float = 1e-9, max_pairs: int = 12,
                   reality_tol: float = 1e-9) -> SpectrumResult:
    """Diagonalize, snap real levels, order canonically, keep max_pairs.

    An exactly Hermitian operator (hermiticity_of_operator == 0: every
    active block equals its conjugate transpose) is solved in the rotated
    spinor basis (_rotated), anything else by LAPACK's general eigensolver
    on op.matrix itself: the Hermitian routines read one triangle or one
    block only and would drop an anti-Hermitian part of any size.  The
    rotated matrix is real exactly when every active block has
    h00 == h11 (no space-vector channel).  When both of its diagonal K x K
    blocks are exactly zero (only the mass, scalar and space-vector
    channels: H anticommutes with sigma_y), it is [[0, A], [A^H, 0]], and
    one SVD of A gives its spectrum +-s (_chiral_svd), exact zero modes
    chirality-pure; any other rotated matrix goes to LAPACK's Hermitian
    eigensolver, the real symmetric one when it is real.  Either way only
    the kept columns are rotated back (_unrotated).  Levels that pass the
    reality test (_is_real) get Im E = 0 exactly, then _canonical_order
    picks the lowest max_pairs, and _reality_tags tags them.  max_pairs
    must be an integer >= 1.  Every returned pair is residual-checked
    against the operator's stencil (_applied, O(K) per pair) and the
    routine's own eigenvalue: ||H v - E v||_2 / ||v||_2 must be at most tol
    (a NaN residual is not), otherwise the solve is reported as
    non-converged with the offending residuals listed.  tol must be finite
    and positive, reality_tol finite and non-negative.  The kept
    eigenvector columns land, unnormalized, in one (K, n, 2) states stack;
    normalization lives in the diagnostics layer.
    """
    if not (_is_a(max_pairs, int, np.integer) and max_pairs >= 1):
        raise GridError(f"max_pairs must be an integer >= 1, got {max_pairs!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise GridError(f"tol must be finite and positive, got {tol}")
    if not (np.isfinite(reality_tol) and reality_tol >= 0):
        raise GridError(f"reality_tol must be finite and non-negative, got {reality_tol}")
    hermitian = hermiticity_of_operator(op) == 0.0
    chiral = None
    if hermitian:  # the rotated matrix lives only as the solver's argument
        real = np.array_equal(op.blocks[:, 0, 0], op.blocks[:, 1, 1])
        m = _rotated(op.matrix, real)
        k = len(op.blocks)
        # an overflowed rotation goes to eigh too, which returns NaN
        # quietly where the SVD's LAPACK routine prints an error message
        if m[:k, :k].any() or m[k:, k:].any() or not np.isfinite(m[:k, k:]).all():
            w, v = np.linalg.eigh(m)
        else:
            w, chiral = _chiral_svd(m[:k, k:])
        del m
    else:
        w, v = np.linalg.eig(op.matrix)
    energies = w.astype(complex)
    energies.imag[_is_real(energies, reality_tol)] = 0.0
    keep = _canonical_order(energies, reality_tol)[:max_pairs]

    if chiral is None:
        vk = v[:, keep]
        del v  # free the full eigenvector matrix before the stack is allocated
    else:
        vk = _chiral_columns(*chiral, keep)
        del chiral  # and the SVD's factors
    if hermitian:
        vk = _unrotated(vk)
    residuals = (np.linalg.norm(_applied(op, vk) - vk * w[keep], axis=0)
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


def _add_into(total: list, poly: list, weight: float) -> None:
    """total += weight * poly, coefficient by coefficient.  poly is scaled in
    place, and total[k] takes the sum in place once it is a full stack."""
    for k, c in enumerate(poly):
        if weight != 1.0:
            c *= weight
        if np.shape(total[k]) == c.shape:
            total[k] += c
        else:
            total[k] = total[k] + c


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

    Each K is added to the running sum as soon as the next stage's
    argument is formed from it, and then dropped, so no two K are alive at
    once.  Sums are accumulated in place, which rounds as the written
    expression does, since a sum commutes exactly; a complex product keeps
    its operand order, since numpy's vector loop fuses one of its two terms.
    """
    k1 = [-_J * table[0], _J * _EYE]
    arg = _plus_eye(0.5 * dx, k1)
    # K1 + 2 K2 + 2 K3 + K4; a 0.0 for a power of E that K1 lacks is still
    # added, which turns -0.0 into 0.0 as the written sum does
    total = k1 + [0.0] * 3
    for h, scale, weight in ((table[1], 0.5 * dx, 2.0), (table[1], dx, 2.0),
                             (table[2], None, 1.0)):
        k = _times_f(-_J * h, arg)
        if scale is not None:
            arg = _plus_eye(scale, k)
        _add_into(total, k, weight)
        del k  # not alive while the next K is formed
    sixth = dx / 6.0
    steps = [np.multiply(sixth, c, out=c) for c in total]
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


def _evaluate_steps(poly: tuple, energies: np.ndarray) -> np.ndarray:
    """P(E) of a step quartic by Horner's rule at each of B trial energies,
    stacked as (2, 2, B, ...) from (2, 2, ...) coefficient stacks."""
    def horner(energy: complex) -> np.ndarray:
        out = poly[-1] * energy
        for c in poly[-2:0:-1]:
            out += c
            out *= energy
        out += poly[0]
        return out
    return np.stack([horner(e) for e in energies.tolist()], axis=2)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices held as (2, 2, ...), written entrywise."""
    out = a[:, :1] * b[:1]
    out += a[:, 1:] * b[1:]
    return out


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


# one level in _RESCALE_EVERY of a tree product or prefix scan is rescaled by
# a power of two (_scale_into), which leaves every entry below 1.  A 2x2
# product of matrices whose entries are below 2**b has entries below
# 2**(2b + 1), so the products of the next 7 levels stay below 2**127 and
# those of the 8th, rescaled again, below 2**255, far from overflow
_RESCALE_EVERY = 8


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """P_last ... P_0 along the last axis of a (2, 2, ..., K) stack, up to a
    power of two per product.

    A pairwise tree: each level multiplies neighbours in one batched product,
    so there are about log2 K levels.  The third level and every
    _RESCALE_EVERY-th after it, but not the first two, the widest, are
    rescaled by exact powers of two (_scale_into), which changes no
    rounding; callers use the product only up to scale.  From step entries
    below 2**63 the first three levels stay below 2**511, and every later
    one below 2**255 (see _RESCALE_EVERY), so the amplitudes of a growing
    solution stay far from overflow.  The axes between the matrix axes and
    the last one (the trial energies and the shooter's segments) are
    independent products.
    """
    level = 0
    while steps.shape[-1] > 1:
        odd = steps.shape[-1] % 2
        paired = _mul(steps[..., 1::2], steps[..., : steps.shape[-1] - odd : 2])
        if odd:
            paired = np.concatenate([paired, steps[..., -1:]], axis=-1)
        if (level - 2) % _RESCALE_EVERY == 0:
            _scale_into(paired, paired)
        steps = paired
        level += 1
    return steps[..., 0]


def _trajectory(steps: np.ndarray, substeps: int, y0: np.ndarray) -> np.ndarray:
    """The state at every node of every segment, from a (2, 2, S, W) stack.

    Each interval's substeps are first multiplied into one node matrix, for
    all S segments at once.  A Hillis-Steele prefix scan then gives every
    node's ordered product N_k ... N_0 in about log2(W / substeps) batched
    levels.  Each prefix is held as a matrix and a power of two, whose
    exponents add exactly in int64.  The node matrices and the prefixes of
    every _RESCALE_EVERY-th level are scaled into [0.5, 1) (_scale_into), so
    no prefix reaches 2**255; since every scaling is exact, the states are
    bit for bit those of a scan that rescales every level.  The powers reach
    the states through np.ldexp at the end.  A segment whose amplitude
    reaches 2**_RESCALE_EXPONENT is divided as a whole by the power of two
    of its largest state; only the shape matters, and exponentially small
    values near its wall flushing to zero is harmless.  Returns
    (S, W / substeps + 1, 2), y0 first; a segment's identity padding repeats
    its last state.
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
    shift, level = 1, 1
    while shift < prefix.shape[-1]:
        prod = _mul(prefix[..., shift:], prefix[..., :-shift])
        power[..., shift:] += power[..., :-shift]
        if level % _RESCALE_EVERY == 0:
            power[..., shift:] += _scale_into(prod, prefix[..., shift:])
        else:
            prefix[..., shift:] = prod
        shift, level = 2 * shift, level + 1
    states = prefix[:, 0] * y0[0] + prefix[:, 1] * y0[1]
    top = (power + np.frexp(np.abs(states).max(axis=0))[1]).max(axis=-1, keepdims=True)
    power -= np.where(top > _RESCALE_EXPONENT, top, 0)
    out = np.empty(power.shape + (2,), dtype=complex)
    np.ldexp(states.real, power, out=np.moveaxis(out.real, -1, 0))
    np.ldexp(states.imag, power, out=np.moveaxis(out.imag, -1, 0))
    return out


# the trial solution at each wall: phi_plus = 0, phi_minus = 1
_Y_WALL = np.array([0.0, 1.0], dtype=complex)


def _matching_determinants(poly: tuple, energies: np.ndarray) -> tuple:
    """The (2, 2, B, 2, W) step stack and the B normalized matching
    determinants det[u_left(mid), u_right(mid)] / (|u_left| |u_right|) at B
    trial energies, from one Horner evaluation and one tree product."""
    steps = _evaluate_steps(poly, energies)
    # _Y_WALL = (0, 1): the midpoint states are the second columns; l0 is the
    # first component of u_left at each energy
    (l0, r0), (l1, r1) = _ordered_product(steps)[:, 1].transpose(0, 2, 1)
    denom = np.hypot(abs(l0), abs(l1)) * np.hypot(abs(r0), abs(r1))
    if not np.all(denom):
        raise ConvergenceError("trial solution vanished; matching determinant degenerate")
    return steps, (l0 * r1 - l1 * r0) / denom


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
    step.  The start points of the root search, two or three, are then
    evaluated by Horner's rule together (_evaluate_steps) and multiplied in
    one pairwise tree over both segments and all of them (_ordered_product),
    which gives each one's two midpoint states up to a power of two
    (_matching_determinants); each step of the search is one more evaluation
    and one more tree.  The tree rescales by exact powers of two every 8
    levels, so its energies differ at rounding level (at most 4.6e-16 on the
    shoot_levels solves of seeds 0-5, with the same iteration counts) from
    those of a tree that divides by its largest entry at every level.  The
    padding changes no product: the tree is the unpadded one, bit for bit
    unless the padding adds a tree level, and up to a power of two if it
    does.  The state at the converged energy comes from the last trial's
    matrices, which are the root's, multiplied into one matrix per node
    interval, and a prefix scan over those in about log2 n batched levels,
    each prefix held with an exact power of two (_trajectory); the padded
    nodes are sliced off, and the matched nodes are ShootingResult.state.
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

    step0 = 1e-4 * max(1.0, abs(energy_guess))
    if energy_guess.imag == 0.0:
        zs = [energy_guess, energy_guess + step0]
    else:
        zs = [energy_guess - step0, energy_guess + step0 * 1.0j, energy_guess]
    fs = list(_matching_determinants(poly, np.array(zs))[1])
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
        steps, (f,) = _matching_determinants(poly, np.array([z]))
        zs, fs = zs[1:] + [z], fs[1:] + [f]
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

    # assemble the matched global state from the last trial's steps, at e1
    paths = _trajectory(steps[:, :, 0], substeps, _Y_WALL)
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
