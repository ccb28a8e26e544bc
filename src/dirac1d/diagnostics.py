"""Currents, normalization, conservation checks and orthogonality balance.

The central identity: for two stationary states phi_k, phi_k' of the same
operator on [a, b],

    (E_k - E_k') * I[ phibar_k' gamma0 phi_k ]
        + i [ phibar_k' gamma1 phi_k ]_a^b
        - I[ phibar_k' (V - gamma0 V^dag gamma0) phi_k ]  =  0

with I[.] the domain quadrature and [.]_a^b the endpoint difference.  For a
Hermitian potential the last term vanishes and distinct levels come out
orthogonal; an anti-Hermitian admixture (e.g. the purely imaginary vector
potential generated by a position-dependent mass) feeds the third term and
orthogonality in the plain gamma0 inner product is lost, which is exactly
what the balance report quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

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
    """j^mu = phibar gamma^mu phi; both components are real by construction.

    In the representation j0 = |phi_plus|^2 + |phi_minus|^2 and
    j1 = |phi_plus|^2 - |phi_minus|^2.
    """
    j0 = _bilinear(phi, phi, GAMMA0)
    j1 = _bilinear(phi, phi, GAMMA1)
    scale = max(1.0, float(np.max(np.abs(j0))))
    worst = max(float(np.max(np.abs(j0.imag))), float(np.max(np.abs(j1.imag))))
    if worst > 1e-10 * scale:
        raise GridError(
            f"current density has a non-vanishing imaginary part ({worst:.3e}); "
            "gamma matrices violate the required Hermiticity structure"
        )
    return CurrentDensity(j0=GridFunction(phi.grid, j0.real),
                          j1=GridFunction(phi.grid, j1.real))


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


def gram_matrix(result: SpectrumResult) -> np.ndarray:
    """G[k', k] = quadrature of phibar_k' gamma0 phi_k over the domain.

    Hermitian with unit diagonal for normalized states of a Hermitian
    operator; genuinely non-Hermitian off-diagonal entries appear for
    anti-Hermitian potential admixtures.
    """
    w = result.grid.quadrature_weights
    comps = [_components(s) for s in result.eigenpairs]
    n = len(comps)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            # gamma0 gamma0 = 1: the integrand is the plain component overlap
            g[i, j] = np.sum(w * np.sum(np.conj(comps[i]) * comps[j], axis=1))
    return g


def _discrete_flux(skp: Spinor, sk: Spinor, result: SpectrumResult,
                   lo: int, hi: int) -> complex:
    """Exact discrete boundary flux of the assembled operator across [lo, hi].

    This is the stencil-level counterpart of i [phibar_k' gamma1 phi_k]: the
    central-difference part telescopes to a symmetrized cross-node gamma1
    bilinear at each window edge (equal to the pointwise value up to O(h^2)),
    and the Wilson term contributes its own antisymmetrized gamma0 flux of
    size O(h).  Using these instead of the pointwise continuum expressions
    is what lets the balance identity close at rounding level for any
    window.  Out-of-range nodes are zero (hard wall) or wrap (periodic), so
    the flux vanishes identically for full-domain hard-wall states.
    """
    n = skp.grid.n_points
    periodic = skp.grid.boundary == "periodic"
    rows = _adjoint(skp)
    cols = _components(sk)

    def cross(mat: Optional[np.ndarray], i: int, j: int) -> complex:
        if periodic:
            i %= n
            j %= n
        elif not (0 <= i < n and 0 <= j < n):
            return 0.0 + 0.0j
        r = rows[i] if mat is None else rows[i] @ mat
        return complex(r @ cols[j])

    def p_sym(j: int) -> complex:
        return cross(GAMMA1, j, j + 1) + cross(GAMMA1, j + 1, j)

    def a_anti(j: int) -> complex:
        return cross(None, j, j + 1) - cross(None, j + 1, j)

    flux = 0.5j * (p_sym(hi) - p_sym(lo - 1))
    r = wilson_weight(result.scheme, result.wilson_r)
    if r != 0.0:
        flux += 0.5 * r * (a_anti(hi) - a_anti(lo - 1))
    return flux


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


def orthogonality_balance(result: SpectrumResult, k: int, k_prime: int,
                          window: Optional[tuple[int, int]] = None,
                          identity_tol: Optional[float] = None) -> BalanceReport:
    """Evaluate the balance identity for the ordered pair (k, k_prime).

    Both states are first re-checked against the coupled-equation oracle
    (residual norm within ORACLE_FACTOR * solver tolerance) so the identity
    is only ever reported for genuine eigenpairs.  window, when given, is an
    inclusive pair of node indices; the flux term is then evaluated at the
    window edges and the quadrature restricted to h-weighted sums over the
    window, which keeps the identity exact at the stencil level.  The
    orthogonality verdict compares |term_boundary - term_potential| against
    the identity tolerance; by the identity this difference equals
    (E_k' - E_k) <k'|k> up to rounding, so a small gap for distinct real
    levels means the states are orthogonal in the gamma0 inner product.
    """
    n_pairs = len(result.eigenpairs)
    if k == k_prime:
        raise GridError("balance identity needs two distinct states (k == k_prime)")
    if not (0 <= k < n_pairs and 0 <= k_prime < n_pairs):
        raise GridError(f"pair indices ({k}, {k_prime}) out of range 0..{n_pairs - 1}")
    sk = result.eigenpairs[k]
    skp = result.eigenpairs[k_prime]
    grid = result.grid

    for label, s in (("k", sk), ("k_prime", skp)):
        res = reduced_residual_norm(s.energy,
                                    GridFunction(grid, s.plus_component),
                                    GridFunction(grid, s.minus_component),
                                    result.potential, result.mass,
                                    scheme=result.scheme, wilson_r=result.wilson_r)
        if res > ORACLE_FACTOR * result.solver_tolerance:
            raise GridError(
                f"state {label} fails the coupled-equation oracle "
                f"(residual {res:.3e} > {ORACLE_FACTOR:g} x tol); "
                "balance identity is only defined for eigenpairs"
            )

    if window is None:
        lo, hi = 0, grid.n_points - 1
        weights = grid.quadrature_weights
        sl = slice(None)
    else:
        lo, hi = int(window[0]), int(window[1])
        if not (0 <= lo < hi <= grid.n_points - 1):
            raise GridError(f"window ({lo}, {hi}) is not a valid index range")
        sl = slice(lo, hi + 1)
        # rectangle weights: the discrete identity closes exactly in plain
        # h-weighted sums, edge halving would reopen it by O(h)
        weights = np.full(hi - lo + 1, grid.h)

    overlap_density = np.sum(np.conj(_components(skp)) * _components(sk), axis=1)
    g_entry = complex(np.sum(weights * overlap_density[sl]))
    term_energy = (sk.energy - skp.energy) * g_entry

    term_boundary = _discrete_flux(skp, sk, result, lo, hi)

    anti = _bilinear(skp, sk, result.potential.anti_hermitian)
    term_potential = complex(np.sum(weights * anti[sl]))

    residual = abs(term_energy + term_boundary - term_potential)
    scale = max(1.0, abs(term_energy), abs(term_boundary), abs(term_potential))
    tol = identity_tol if identity_tol is not None else 100.0 * grid.h ** 2
    identity_ok = residual <= tol * scale

    # By the identity, term_boundary - term_potential = -(E_k - E_k') <k'|k>
    # up to rounding, so this gap measures how far the pair is from the
    # restored-orthogonality condition.  Zero for Hermitian potentials with
    # vanishing flux; O(1) under an anti-Hermitian admixture.
    gap = abs(term_boundary - term_potential)
    restored = bool(gap <= tol)

    return BalanceReport(k=k, k_prime=k_prime, term_energy=term_energy,
                         term_boundary=term_boundary, term_potential=term_potential,
                         identity_residual=residual, identity_tol=tol,
                         identity_ok=bool(identity_ok),
                         orthogonality_gap=float(gap),
                         orthogonality_restored=restored, window=window)
