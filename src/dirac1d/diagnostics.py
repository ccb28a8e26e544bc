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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import GridError
from .grid import GridFunction, differentiate, integrate
from .hamiltonian import reduced_residual_norm, wilson_weight
from .lorentz import GAMMA0, GAMMA1, LorentzPotential
from .solver import SpectrumResult, Spinor

# a state enters the balance identity only when its coupled-equation residual
# is within this multiple of the solver tolerance
ORACLE_FACTOR = 10.0


def _components(phi: Spinor) -> np.ndarray:
    """Spinor as an (n, 2) array."""
    return np.stack([phi.plus_component, phi.minus_component], axis=1)


def _adjoint(phi: Spinor) -> np.ndarray:
    """phibar = phi^dagger gamma0 as an (n, 2) array of row spinors."""
    return np.conj(_components(phi)) @ GAMMA0


def adjoint_row(phi: Spinor) -> tuple[GridFunction, GridFunction]:
    """The adjoint row spinor phibar = phi^dagger gamma0, componentwise."""
    row = _adjoint(phi)
    return GridFunction(phi.grid, row[:, 0]), GridFunction(phi.grid, row[:, 1])


def _bilinear(phi_row: Spinor, phi_col: Spinor, matrix: np.ndarray) -> np.ndarray:
    """phibar_row (matrix) phi_col node by node; matrix is 2x2 or (n,2,2)."""
    a = _adjoint(phi_row)
    b = _components(phi_col)
    if matrix.ndim == 2:
        return np.einsum("na,ab,nb->n", a, matrix, b)
    return np.einsum("na,nab,nb->n", a, matrix, b)


@dataclass(frozen=True)
class CurrentDensity:
    """Timelike and spacelike components of the Dirac current of one state."""

    j0: GridFunction
    j1: GridFunction


def current_density(phi: Spinor) -> CurrentDensity:
    """j^mu = phibar gamma^mu phi, real by construction.

    In the fixed representation j0 = |phi_plus|^2 + |phi_minus|^2 and
    j1 = |phi_plus|^2 - |phi_minus|^2.
    """
    p, m = phi.plus_component, phi.minus_component
    plus = p.real ** 2 + p.imag ** 2
    minus = m.real ** 2 + m.imag ** 2
    return CurrentDensity(j0=GridFunction(phi.grid, plus + minus),
                          j1=GridFunction(phi.grid, plus - minus))


def normalize(phi: Spinor) -> Spinor:
    """Scale so the quadrature of j0 is one; fix the global phase.

    Phase convention: the largest-magnitude sample over both components is
    made real and positive.  Deterministic (first such sample wins ties).
    """
    cur = current_density(phi)
    total = integrate(cur.j0).real
    if total <= 1e-300:
        raise GridError("cannot normalize a zero-norm spinor")
    stacked = np.concatenate([phi.plus_component, phi.minus_component])
    pivot = stacked[int(np.argmax(np.abs(stacked)))]
    factor = (abs(pivot) / pivot) / np.sqrt(total)
    return Spinor(grid=phi.grid,
                  plus_component=phi.plus_component * factor,
                  minus_component=phi.minus_component * factor,
                  energy=phi.energy)


def normalize_result(result: SpectrumResult) -> SpectrumResult:
    """Normalize every eigenpair of a spectrum result."""
    return replace(result, eigenpairs=tuple(normalize(s) for s in result.eigenpairs))


def continuity_residual(phi: Spinor, pot: LorentzPotential) -> GridFunction:
    """Stationary continuity check R(x), identically zero when current is conserved.

        R = 2 Im(E) j0 + d(j1)/dx + i phibar (V - gamma0 V^dag gamma0) phi

    The derivative is the central difference, so for discrete eigenstates R
    floors at its truncation error, not at zero.
    """
    cur = current_density(phi)
    dj1 = differentiate(cur.j1)
    anti = _bilinear(phi, phi, pot.anti_hermitian)
    r = 2.0 * phi.energy.imag * cur.j0.values + dj1.values + 1.0j * anti
    return GridFunction(phi.grid, r)


def _stack(result: SpectrumResult) -> np.ndarray:
    """All eigenpairs as one (K, n, 2) array of components."""
    return np.stack([_components(s) for s in result.eigenpairs])


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
    c = _stack(result)
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
    c = _stack(result)
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
    r = wilson_weight(result.scheme, result.wilson_r)
    if r != 0.0:
        boundary = boundary + 0.5 * r * (a_hi - a_lo)
    anti_c = np.einsum("nab,knb->kna", result.potential.anti_hermitian[sl], c[:, sl])
    return energy, boundary, _overlap(rows[:, sl], anti_c, weights)


@dataclass(frozen=True)
class BalanceReport:
    """Term-by-term account of the two-state balance identity."""

    k: int
    k_prime: int
    term_energy: complex
    term_boundary: complex
    term_potential: complex
    identity_residual: float
    identity_tol: float
    identity_ok: bool
    orthogonality_gap: float
    orthogonality_restored: bool
    window: Optional[tuple[int, int]]


def _pair_error(k: int, k_prime: int, n_states: int) -> Optional[str]:
    if k == k_prime:
        return "balance identity needs two distinct states (k == k_prime)"
    if not (0 <= k < n_states and 0 <= k_prime < n_states):
        return f"pair indices ({k}, {k_prime}) out of range 0..{n_states - 1}"
    return None


def orthogonality_balance(result: SpectrumResult, pairs: Sequence[tuple[int, int]],
                          window: Optional[tuple[int, int]] = None,
                          identity_tol: Optional[float] = None
                          ) -> tuple[list[BalanceReport], list[tuple[int, int, str]]]:
    """Evaluate the balance identity for every ordered pair (k, k_prime).

    Returns the reports of the evaluated pairs and (k, k_prime, reason) for
    each refused one, both in the order of pairs.  A pair is refused when
    its states are not distinct or out of range, when either state fails
    the coupled-equation oracle (residual norm within ORACLE_FACTOR * solver
    tolerance, run once per state) or when the window is invalid.  window,
    when given, is an inclusive pair of node indices; the flux term is then
    taken at the window edges and the quadrature restricted to h-weighted
    sums over the window, which keeps the identity exact at the stencil
    level.  The orthogonality gap |term_boundary - term_potential| equals
    |E_k - conj(E_k')| |<k'|k>| up to rounding: for distinct real levels a
    gap within the tolerance means gamma0-orthogonal states, while for
    conjugate partners (E_k' = conj(E_k)) it vanishes whatever the overlap.
    """
    grid = result.grid
    n_states = len(result.eigenpairs)
    oracle = {}
    for i in sorted({i for k, kp in pairs if _pair_error(k, kp, n_states) is None
                     for i in (k, kp)}):
        s = result.eigenpairs[i]
        oracle[i] = reduced_residual_norm(
            s.energy, GridFunction(grid, s.plus_component),
            GridFunction(grid, s.minus_component), result.potential,
            result.mass, scheme=result.scheme, wilson_r=result.wilson_r)

    lo, hi = (0, grid.n_points - 1) if window is None else (int(window[0]), int(window[1]))
    window_error = (None if 0 <= lo < hi <= grid.n_points - 1
                    else f"window ({lo}, {hi}) is not a valid index range")
    if oracle and window_error is None:
        # rectangle weights on a window: the discrete identity closes exactly
        # in plain h-weighted sums, edge halving would reopen it by O(h)
        weights = (grid.quadrature_weights if window is None
                   else np.full(hi - lo + 1, grid.h))
        terms = _balance_terms(result, lo, hi, weights)
    tol = identity_tol if identity_tol is not None else 100.0 * grid.h ** 2

    reports, failures = [], []
    for k, kp in pairs:
        error = _pair_error(k, kp, n_states)
        for label, i in (("k", k), ("k_prime", kp)):
            if error is None and oracle[i] > ORACLE_FACTOR * result.solver_tolerance:
                error = (f"state {label} fails the coupled-equation oracle "
                         f"(residual {oracle[i]:.3e} > {ORACLE_FACTOR:g} x tol); "
                         "balance identity is only defined for eigenpairs")
        if error or window_error:
            failures.append((k, kp, error or window_error))
            continue
        te, tb, tp = (complex(t[kp, k]) for t in terms)
        residual = abs(te + tb - tp)
        # by the identity, tb - tp = -(E_k - conj(E_k')) <k'|k> up to rounding
        gap = abs(tb - tp)
        reports.append(BalanceReport(
            k=k, k_prime=kp, term_energy=te, term_boundary=tb, term_potential=tp,
            identity_residual=residual, identity_tol=tol,
            identity_ok=residual <= tol * max(1.0, abs(te), abs(tb), abs(tp)),
            orthogonality_gap=gap, orthogonality_restored=gap <= tol,
            window=window))
    return reports, failures
