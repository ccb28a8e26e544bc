"""Currents, normalization, conservation checks and orthogonality balance.

The central identity: for two stationary states phi_k, phi_k' of the same
operator on [a, b],

    (E_k - conj(E_k')) * I[ phibar_k' gamma0 phi_k ]
        + i [ phibar_k' gamma1 phi_k ]_a^b
        - I[ phibar_k' (V - gamma0 V^dag gamma0) phi_k ]  =  0

with I[.] the domain quadrature and [.]_a^b the endpoint difference.  E_k'
enters conjugated because phibar_k' obeys the gamma0-adjoint equation; for
k = k' this is the 2 Im(E) j0 term of the continuity equation.  For a
Hermitian potential the last term vanishes and distinct levels come out
orthogonal; an anti-Hermitian admixture (e.g. the purely imaginary vector
potential generated by a position-dependent mass) feeds the third term and
orthogonality in the plain gamma0 inner product is lost, which is exactly
what the balance report quantifies.

Every function here works on a result's whole (K, n, 2) state stack at once:
normalization, the continuity residual of every state as one (K, n) array,
the K x K Gram matrix, the balance terms and the oracle norms of the
states the balance pairs use.  The balance identity of all pairs comes back
as one BalanceTable of per-pair columns, gathered from the K x K term
matrices.  The Gram matrix and a windowless balance read one overlap
product, formed once per result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import GridError
from .grid import GridFunction, _is_a, _overlap
from .hamiltonian import reduced_residual_norm
from .lorentz import GAMMA0, GAMMA1
from .solver import SpectrumResult

# a state enters the balance identity only when its coupled-equation residual
# is within this multiple of the solver tolerance
ORACLE_FACTOR = 10.0

# the auto balance-identity tolerance, applied relative to max(1, |terms|):
# the identity is exact at the stencil level, so only rounding is left.  The
# worst relative residual measured on the acceptance cases (README PT run at
# n=800, many-state Hermitian runs, complex PT levels) is about 230 eps.
AUTO_IDENTITY_TOL = 1e4 * float(np.finfo(float).eps)

# the phase pivot is the first sample whose magnitude is within this relative
# distance of the largest: mirror-symmetric states have two equal-magnitude
# peaks, and a plain argmax would let rounding choose between them
PIVOT_REL_TOL = 1e-8


def _densities(c: np.ndarray) -> np.ndarray:
    """|phi_plus|^2 and |phi_minus|^2 of (..., 2) components, on the last axis."""
    return c.real ** 2 + c.imag ** 2


def normalize_result(result: SpectrumResult) -> SpectrumResult:
    """Scale every state so the quadrature of its j0 is one; fix its phase.

    Phase convention: each state's pivot sample is made real and positive.
    It is the first sample, plus component then minus, each in node order,
    whose magnitude is at least (1 - PIVOT_REL_TOL) times the state's
    largest, so a global phase or rounding in the input cannot move it
    between near-equal peaks.
    """
    states = result.states
    k = len(states)
    # j0 summed as a complex array: a real sum pairs the terms differently
    # and would move the last bits of every normalized state
    charge = np.sum(result.grid.quadrature_weights
                    * np.sum(_densities(states), axis=2).astype(complex), axis=1).real
    if np.any(charge <= 1e-300):
        raise GridError("cannot normalize a zero-norm spinor")
    flat = states.transpose(0, 2, 1).reshape(k, -1)
    mag = np.abs(flat)
    first = np.argmax(mag >= (1.0 - PIVOT_REL_TOL) * mag.max(axis=1, keepdims=True),
                      axis=1)
    pivots = flat[np.arange(k), first]
    # scalar arithmetic: the vectorized complex division rounds differently
    factors = [(abs(p) / p) / np.sqrt(t) for p, t in zip(pivots, charge)]
    return replace(result, states=states * np.array(factors)[:, None, None])


def _edge_current(states: np.ndarray, wilson_r: float) -> np.ndarray:
    """The current the lattice operator conserves, as (K, n): entry j is the
    flux across the edge from node j to node j + 1 of every state.

        Re(phi_j^dag sigma_z phi_j+1) + wilson_r Im(phi_j^dag sigma_x phi_j+1)

    from the central difference and the Wilson term: -i times the k = k'
    boundary bilinears of _edge_flux, and in the continuum limit j1.  The
    last edge wraps to node 0, so a dirichlet state, zero at both walls,
    carries no flux through it.
    """
    p, m = np.moveaxis(states, -1, 0)
    p_up, m_up = np.roll(p, -1, axis=-1), np.roll(m, -1, axis=-1)
    p, m = np.conj(p), np.conj(m)
    return ((p * p_up - m * m_up).real
            + wilson_r * (p * m_up + m * p_up).imag)


def continuity_residual(result: SpectrumResult) -> np.ndarray:
    """Stationary continuity check R_k(x) of every kept state, as (K, n).

        R = 2 Im(E) j0 + div J + i phibar (V - gamma0 V^dag gamma0) phi

    with j0 = |phi_plus|^2 + |phi_minus|^2 and J the lattice current of
    _edge_current, whose divergence at node j is the difference of the fluxes
    on its two edges over the node's quadrature weight.  R is the residual
    of the operator's own continuity equation, source term included, so it
    vanishes to rounding for every eigenstate, Hermitian or not; the source
    2 Im(E) j0 + i phibar (...) phi carries any non-conservation.
    """
    c = result.states
    d = _densities(c)
    flux = _edge_current(c, result.operator.wilson_r)
    div = (flux - np.roll(flux, 1, axis=-1)) / result.grid.quadrature_weights
    a = result.operator.potential.anti_hermitian
    p, m = np.moveaxis(c, -1, 0)
    # phibar = (conj(phi_minus), conj(phi_plus)): gamma0 swaps the components
    anti = (np.conj(m) * (a[:, 0, 0] * p + a[:, 0, 1] * m)
            + np.conj(p) * (a[:, 1, 0] * p + a[:, 1, 1] * m))
    return (2.0 * result.energies.imag[:, None] * (d[..., 0] + d[..., 1])
            + div + 1.0j * anti)


def gram_matrix(result: SpectrumResult) -> np.ndarray:
    """G[k', k] = quadrature of phibar_k' gamma0 phi_k over the domain.

    A Gram matrix with positive weights, so exactly Hermitian for any
    states: the upper triangle is the overlap product, the strict lower
    triangle its conjugate and the diagonal real, with unit entries for
    normalized states.  Distinct levels of a Hermitian operator give a
    diagonal G; anti-Hermitian potential admixtures give non-orthogonal
    states, so non-zero off-diagonal entries.
    """
    # gamma0 gamma0 = 1: the integrand is the plain component overlap
    upper = result._overlap_product
    g = np.where(np.tri(len(upper), k=-1, dtype=bool), np.conj(upper.T), upper)
    np.fill_diagonal(g.imag, 0.0)
    return g


def _edge_flux(rows: np.ndarray, cols: np.ndarray, j: int,
               periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """gamma1-symmetrized and plain antisymmetrized cross-node bilinears of
    all pairs [k', k] at the edge between nodes j and j+1.  Periodic edges
    wrap; an edge past a hard wall, where the states vanish, carries none."""
    n = rows.shape[1]
    a, b = j, j + 1
    if periodic:
        a, b = a % n, b % n
    elif a < 0 or b >= n:
        return (np.zeros((rows.shape[0], cols.shape[0]), dtype=complex),) * 2
    ra, rb, ca, cb = rows[:, a], rows[:, b], cols[:, a], cols[:, b]
    return (ra @ GAMMA1) @ cb.T + (rb @ GAMMA1) @ ca.T, ra @ cb.T - rb @ ca.T


def _balance_terms(result: SpectrumResult, lo: int, hi: int, weights: np.ndarray,
                   overlap: Optional[np.ndarray] = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy, boundary and potential terms of all pairs, as K x K [k', k].

    overlap, when given, is the window's <k'|k> product; else it is formed
    here.  The boundary term is the exact discrete flux of the assembled
    operator: the central difference telescopes to a symmetrized cross-node
    gamma1 bilinear at each window edge and the Wilson term adds an
    antisymmetrized gamma0 flux of size O(h), so the identity closes at
    rounding.
    """
    c = result.states
    rows = np.conj(c) @ GAMMA0
    sl = slice(lo, hi + 1)
    e = result.energies
    # E_k' enters the gamma0-adjoint equation of state k' conjugated
    if overlap is None:
        overlap = _overlap(np.conj(c[:, sl]), c[:, sl], weights)
    energy = (e[None, :] - np.conj(e)[:, None]) * overlap
    periodic = result.grid.boundary == "periodic"
    p_hi, a_hi = _edge_flux(rows, c, hi, periodic)
    p_lo, a_lo = _edge_flux(rows, c, lo - 1, periodic)
    boundary = 0.5j * (p_hi - p_lo)
    op = result.operator
    if op.wilson_r != 0.0:
        boundary = boundary + 0.5 * op.wilson_r * (a_hi - a_lo)
    # column b of the anti-Hermitian part times component b, summed over b
    a = op.potential.anti_hermitian[sl]
    anti_c = a[:, :, 0] * c[:, sl, 0, None] + a[:, :, 1] * c[:, sl, 1, None]
    return energy, boundary, _overlap(rows[:, sl], anti_c, weights)


# the per-pair arrays of a BalanceTable, in field order
_COLUMNS = ("k", "k_prime", "term_energy", "term_boundary", "term_potential",
            "identity_residual", "orthogonality_gap", "identity_ok",
            "orthogonality_restored")


@dataclass(frozen=True, eq=False)
class BalanceTable:
    """The balance identity of every evaluated pair, as read-only columns.

    Entry i of each array belongs to pair (k[i], k_prime[i]); identity_tol
    and window are shared by all pairs.  len(table) is the number of pairs.
    """

    k: np.ndarray
    k_prime: np.ndarray
    term_energy: np.ndarray
    term_boundary: np.ndarray
    term_potential: np.ndarray
    identity_residual: np.ndarray
    orthogonality_gap: np.ndarray
    identity_ok: np.ndarray
    orthogonality_restored: np.ndarray
    identity_tol: float
    window: Optional[tuple[int, int]]

    def __post_init__(self) -> None:
        for name in _COLUMNS:  # read-only views, no copies
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.k)


def _magnitude(z: np.ndarray) -> np.ndarray:
    # hypot is what abs(complex) computes; np.abs rounds differently
    return np.hypot(z.real, z.imag)


def orthogonality_balance(result: SpectrumResult, pairs: Sequence[tuple[int, int]],
                          window: Optional[tuple[int, int]] = None,
                          identity_tol: Optional[float] = None
                          ) -> tuple[BalanceTable, list[tuple[int, int, str]]]:
    """Evaluate the balance identity for every ordered pair (k, k_prime).

    Returns the table of the evaluated pairs and (k, k_prime, reason) for
    each refused one, both in the order of pairs.  A pair is refused when
    its states are not distinct or out of range, when either state fails
    the coupled-equation oracle (residual norm within ORACLE_FACTOR * solver
    tolerance, one call on every state the pairs use) or when the window is
    invalid.  window, when given, is an inclusive pair of node indices; the
    flux term is then taken at the window edges and the quadrature
    restricted to h-weighted sums over the window, which keeps the identity
    exact at the stencil level.  identity_tol defaults to AUTO_IDENTITY_TOL; a pair closes when
    its residual is within identity_tol * max(1, |terms|).  The
    orthogonality gap |term_boundary - term_potential| equals
    |E_k - conj(E_k')| |<k'|k>| up to rounding: for distinct real levels a
    gap within identity_tol means gamma0-orthogonal states, while for
    conjugate partners (E_k' = conj(E_k)) it vanishes whatever the overlap.
    pairs that are not (k, k_prime) pairs of integers, signed or unsigned,
    and a window that is not a pair of integers, raise TypeError.
    """
    op, grid, c = result.operator, result.grid, result.states
    n_states = len(c)
    try:
        index = np.asarray(pairs) if len(pairs) else np.zeros((0, 2), dtype=int)
    except ValueError:  # numpy refuses a ragged sequence
        index = None
    if index is None or index.shape != (len(pairs), 2):
        raise TypeError("pairs must be a sequence of (k, k_prime) index pairs")
    if index.dtype.kind not in "iu":
        raise TypeError(f"pair indices must be integers, not {index.dtype}")
    if window is not None and not (np.shape(window) == (2,) and all(
            _is_a(w, int, np.integer) for w in window)):
        raise TypeError(f"window must be a pair of integer node indices, got {window!r}")
    k, kp = index.astype(int).T
    distinct = k != kp
    in_range = (k >= 0) & (k < n_states) & (kp >= 0) & (kp < n_states)
    valid = distinct & in_range
    used = np.unique(np.concatenate([k[valid], kp[valid]]))
    oracle = np.zeros(n_states)
    oracle[used] = reduced_residual_norm(
        result.energies[used], GridFunction(grid, c[used, :, 0]),
        GridFunction(grid, c[used, :, 1]), op.potential, op.mass,
        scheme=op.scheme, wilson_r=op.wilson_r)
    fails = np.flatnonzero(oracle > ORACLE_FACTOR * result.solver_tolerance)
    k_fails, kp_fails = valid & np.isin(k, fails), valid & np.isin(kp, fails)

    lo, hi = (0, grid.n_points - 1) if window is None else (int(window[0]), int(window[1]))
    window_ok = 0 <= lo < hi <= grid.n_points - 1
    ok = valid & ~k_fails & ~kp_fails & window_ok

    failures = []
    for j in np.flatnonzero(~ok).tolist():
        kj, kpj = pairs[j]
        if not distinct[j]:
            error = "balance identity needs two distinct states (k == k_prime)"
        elif not in_range[j]:
            error = f"pair indices ({kj}, {kpj}) out of range 0..{n_states - 1}"
        elif k_fails[j] or kp_fails[j]:
            label, i = ("k", kj) if k_fails[j] else ("k_prime", kpj)
            error = (f"state {label} fails the coupled-equation oracle "
                     f"(residual {oracle[i]:.3e} > {ORACLE_FACTOR:g} x tol); "
                     "balance identity is only defined for eigenpairs")
        else:
            error = f"window ({lo}, {hi}) is not a valid index range"
        failures.append((kj, kpj, error))

    k, kp = k[ok], kp[ok]
    if len(k):
        # rectangle weights on a window: the discrete identity closes exactly
        # in plain h-weighted sums, edge halving would reopen it by O(h)
        if window is None:  # the product gram_matrix reads
            weights, overlap = grid.quadrature_weights, result._overlap_product
        else:
            weights, overlap = np.full(hi - lo + 1, grid.h), None
        te, tb, tp = (t[kp, k] for t in
                      _balance_terms(result, lo, hi, weights, overlap))
    else:
        te = tb = tp = np.zeros(0, dtype=complex)
    tol = identity_tol if identity_tol is not None else AUTO_IDENTITY_TOL
    residual = _magnitude(te + tb - tp)
    # by the identity, tb - tp = -(E_k - conj(E_k')) <k'|k> up to rounding
    gap = _magnitude(tb - tp)
    scale = np.maximum(np.maximum(1.0, _magnitude(te)),
                       np.maximum(_magnitude(tb), _magnitude(tp)))
    return BalanceTable(
        k=k, k_prime=kp, term_energy=te, term_boundary=tb, term_potential=tp,
        identity_residual=residual, orthogonality_gap=gap,
        identity_ok=residual <= tol * scale, orthogonality_restored=gap <= tol,
        identity_tol=tol, window=window), failures
