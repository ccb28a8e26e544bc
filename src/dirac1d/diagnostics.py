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
the K x K Gram matrix and the balance terms.  The balance identity of all
pairs comes back as one BalanceTable of per-pair columns, gathered from the
K x K term matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import GridError
from .grid import GridFunction, _is_a, central_difference
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


def continuity_residual(result: SpectrumResult) -> np.ndarray:
    """Stationary continuity check R_k(x) of every kept state, as (K, n).

        R = 2 Im(E) j0 + d(j1)/dx + i phibar (V - gamma0 V^dag gamma0) phi

    with the current j^mu = phibar gamma^mu phi, in the fixed representation
    j0 = |phi_plus|^2 + |phi_minus|^2 and j1 = |phi_plus|^2 - |phi_minus|^2.
    R vanishes where the current is conserved.  The derivative is the central
    difference, so for discrete eigenstates R floors at its truncation
    error, not at zero.
    """
    c = result.states
    d = _densities(c)
    # j1 goes complex before the stencil: numpy's complex division by 2h
    # rounds differently from the real one
    dj1 = central_difference((d[..., 0] - d[..., 1]).astype(complex), result.grid)
    anti = np.einsum("kna,nab,knb->kn", np.conj(c) @ GAMMA0,
                     result.operator.potential.anti_hermitian, c)
    return (2.0 * result.energies.imag[:, None] * (d[..., 0] + d[..., 1])
            + dj1 + 1.0j * anti)


def _overlap(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M[k', k] = sum over nodes j of weights_j rows[k', j] . cols[k, j]."""
    k = rows.shape[0]
    return rows.reshape(k, -1) @ (cols * weights[:, None]).reshape(k, -1).T


def gram_matrix(result: SpectrumResult) -> np.ndarray:
    """G[k', k] = quadrature of phibar_k' gamma0 phi_k over the domain.

    Hermitian with unit diagonal for normalized states of a Hermitian
    operator; genuinely non-Hermitian off-diagonal entries appear for
    anti-Hermitian potential admixtures.
    """
    c = result.states
    # gamma0 gamma0 = 1: the integrand is the plain component overlap
    return _overlap(np.conj(c), c, result.grid.quadrature_weights)


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


def _balance_terms(result: SpectrumResult, lo: int, hi: int,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy, boundary and potential terms of all pairs, as K x K [k', k].

    The boundary term is the exact discrete flux of the assembled operator:
    the central difference telescopes to a symmetrized cross-node gamma1
    bilinear at each window edge and the Wilson term adds an antisymmetrized
    gamma0 flux of size O(h), so the identity closes at rounding.
    """
    c = result.states
    rows = np.conj(c) @ GAMMA0
    sl = slice(lo, hi + 1)
    e = result.energies
    # E_k' enters the gamma0-adjoint equation of state k' conjugated
    energy = (e[None, :] - np.conj(e)[:, None]) * _overlap(np.conj(c[:, sl]),
                                                            c[:, sl], weights)
    periodic = result.grid.boundary == "periodic"
    p_hi, a_hi = _edge_flux(rows, c, hi, periodic)
    p_lo, a_lo = _edge_flux(rows, c, lo - 1, periodic)
    boundary = 0.5j * (p_hi - p_lo)
    op = result.operator
    if op.wilson_r != 0.0:
        boundary = boundary + 0.5 * op.wilson_r * (a_hi - a_lo)
    anti_c = np.einsum("nab,knb->kna", op.potential.anti_hermitian[sl], c[:, sl])
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
    tolerance, run once per state) or when the window is invalid.  window,
    when given, is an inclusive pair of node indices; the flux term is then
    taken at the window edges and the quadrature restricted to h-weighted
    sums over the window, which keeps the identity exact at the stencil
    level.  identity_tol defaults to AUTO_IDENTITY_TOL; a pair closes when
    its residual is within identity_tol * max(1, |terms|).  The
    orthogonality gap |term_boundary - term_potential| equals
    |E_k - conj(E_k')| |<k'|k>| up to rounding: for distinct real levels a
    gap within identity_tol means gamma0-orthogonal states, while for
    conjugate partners (E_k' = conj(E_k)) it vanishes whatever the overlap.
    pairs that are not (k, k_prime) pairs of integers, and a window that is
    not a pair of integers, raise TypeError.
    """
    op, grid, c = result.operator, result.grid, result.states
    n_states = len(c)
    try:
        index = np.asarray(pairs) if len(pairs) else np.zeros((0, 2), dtype=int)
    except ValueError:  # numpy refuses a ragged sequence
        index = None
    if index is None or index.shape != (len(pairs), 2):
        raise TypeError("pairs must be a sequence of (k, k_prime) index pairs")
    if index.dtype.kind != "i":
        raise TypeError(f"pair indices must be integers, not {index.dtype}")
    if window is not None and not (np.shape(window) == (2,) and all(
            _is_a(w, int, np.integer) for w in window)):
        raise TypeError(f"window must be a pair of integer node indices, got {window!r}")
    k, kp = index.astype(int).T
    distinct = k != kp
    in_range = (k >= 0) & (k < n_states) & (kp >= 0) & (kp < n_states)
    valid = distinct & in_range
    oracle = np.zeros(n_states)
    for i in np.unique(np.concatenate([k[valid], kp[valid]])).tolist():
        oracle[i] = reduced_residual_norm(
            result.energies[i], GridFunction(grid, c[i, :, 0]),
            GridFunction(grid, c[i, :, 1]), op.potential, op.mass,
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
        weights = (grid.quadrature_weights if window is None
                   else np.full(hi - lo + 1, grid.h))
        te, tb, tp = (t[kp, k] for t in _balance_terms(result, lo, hi, weights))
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
