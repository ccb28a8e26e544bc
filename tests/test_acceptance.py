"""Acceptance gate: one test per release criterion, tolerances pinned.

Shared solves come from conftest fixtures, so each criterion reads the same
spectra a user would get.  Criterion 5 compares the continuum shooting
energy against the lattice ground state.  The Wilson term shifts every
lattice level by O(h) (about 2.4e-3 at n=800), so the lattice energies of
four grids are first extrapolated to h -> 0 and that limit is gated at 1e-6.
"""

import numpy as np
import pytest

from dirac1d import (GridFunction, check_pt_symmetry, continuity_residual,
                     gamma0_hermiticity_residual, gram_matrix,
                     normalize_result, orthogonality_balance,
                     reduced_residual_norm, shooting_solve)
from dirac1d.cli import main
from dirac1d.grid import central_difference
from helpers import dispersion_multiset


def _ground_index(result):
    """Lowest positive-energy state (spectra here are symmetric about 0)."""
    pos = [i for i, e in enumerate(result.energies) if e.real > 0]
    return min(pos, key=lambda i: abs(result.energies[i]))


@pytest.mark.parametrize("n", [128, 256])
def test_criterion_1_free_spectrum_matches_dispersion(free_cases, n):
    case = free_cases[(n, 1.0)]
    e = case.result.energies
    oracle = dispersion_multiset(n, 2.0 * np.pi / n, 1.0, 1.0)
    got = e[np.argsort(e.real)]
    assert np.max(np.abs(got - oracle)) <= 1e-8
    # the k=0 modes are the exact rest energies
    assert np.min(np.abs(e - 1.0)) <= 1e-10
    assert np.min(np.abs(e + 1.0)) <= 1e-10
    assert case.elapsed <= 10.0


@pytest.mark.parametrize("n", [128, 256])
def test_criterion_2_wilson_term_lifts_doublers(free_cases, n):
    h = 2.0 * np.pi / n
    naive = free_cases[(n, 0.0)]
    e0 = naive.result.energies
    oracle0 = dispersion_multiset(n, h, 1.0, 0.0)
    assert np.max(np.abs(e0[np.argsort(e0.real)] - oracle0)) <= 1e-8
    # sin(kh) vanishes at both k=0 and k=pi/h, so the naive operator has
    # four states at |E| = m; the Wilson mass pushes the zone-edge pair up
    assert int(np.sum(np.abs(np.abs(e0) - 1.0) <= 1e-8)) == 4
    e1 = free_cases[(n, 1.0)].result.energies
    assert int(np.sum(np.abs(np.abs(e1) - 1.0) <= 1e-8)) == 2
    assert np.max(np.abs(e1)) >= 1.0 + 2.0 / h - 1e-6


def test_criterion_3_confining_scalar_is_conservative(scalar_cases):
    big = normalize_result(scalar_cases[800].result)
    g = gram_matrix(big)
    off = np.abs(g - np.diag(np.diag(g)))
    assert np.max(off) <= 1e-8
    assert gamma0_hermiticity_residual(big.operator.potential) == 0.0

    worst = {}
    for n in (200, 400, 800):
        res = normalize_result(scalar_cases[n].result)
        worst[n] = float(np.max(np.abs(continuity_residual(res)[:6])))
    if max(worst.values()) <= 1e-12:
        # the current is conserved to rounding on every grid, so there is
        # no truncation tail left whose decay order could be measured
        return
    p1 = np.log2(worst[200] / worst[400])
    p2 = np.log2(worst[400] / worst[800])
    assert abs(p1 - 2.0) <= 0.3, f"measured order {p1:.2f}"
    assert abs(p2 - 2.0) <= 0.3, f"measured order {p2:.2f}"


def test_criterion_4_mass_induced_vector_diagnostics(pt_cases):
    total = sum(c.elapsed for c in pt_cases.values())
    big = pt_cases[800]
    v_t = big.op.potential.v_t

    # (a) the imaginary vector channel is PT symmetric on this grid
    assert check_pt_symmetry(v_t) <= 1e-12

    # (b) non-Hermiticity is carried entirely by that channel, and the
    # spatial current of the ground state is genuinely non-conserved
    defect = gamma0_hermiticity_residual(big.op.potential)
    assert abs(defect - 2.0 * np.max(np.abs(v_t.values))) <= 1e-10
    res = normalize_result(big.result)
    density = np.abs(res.states[_ground_index(res)]) ** 2
    dj1 = central_difference(density[:, 0] - density[:, 1], res.grid)
    r = continuity_residual(res)[_ground_index(res)]
    assert np.max(np.abs(dj1)) > 10.0 * np.max(np.abs(r))

    # (c) balance identity for all pairs among the lowest six
    worst = {}
    for n in (400, 800):
        rn = normalize_result(pt_cases[n].result)
        h = rn.grid.h
        reports, failures = orthogonality_balance(
            rn, [(k, kp) for k in range(6) for kp in range(k)])
        assert failures == [] and len(reports) == 15
        scale = np.maximum.reduce([np.ones(15), np.abs(reports.term_energy),
                                   np.abs(reports.term_boundary),
                                   np.abs(reports.term_potential)])
        assert np.all(reports.identity_residual <= 100.0 * h * scale)
        worst[n] = reports.identity_residual.max()
    if not (worst[400] <= 1e-12 and worst[800] <= 1e-12):
        # only measurable when the identity is not already at rounding
        assert worst[800] < worst[400]

    # (d) orthogonality is genuinely broken, not just weakly perturbed
    g = gram_matrix(res)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) > 1e-4

    assert total <= 60.0


def test_criterion_5_shooting_reproduces_matrix_ground_state(pt_cases):
    ladder = (100, 200, 400, 800)
    h = np.array([pt_cases[n].op.grid.h for n in ladder])
    e = np.array([pt_cases[n].result.energies[_ground_index(pt_cases[n].result)]
                  for n in ladder])
    # h = 20/(n-1) does not halve exactly along the ladder, so fit a cubic in
    # h through all four points instead of the textbook 2E(h/2) - E(h)
    e_limit = np.linalg.solve(np.vander(h, increasing=True), e)[0]
    big = pt_cases[800]
    shot = shooting_solve(big.op.grid, big.op.potential, big.op.mass,
                          float(e[-1].real))
    gap = abs(shot.energy - e_limit)
    assert gap <= 1e-6, (
        f"lattice ground state extrapolated to h -> 0 is "
        f"{e_limit.real:.12g}, shooting energy {shot.energy.real:.12g}: "
        f"gap {gap:.3e} exceeds 1e-6")

    # the lattice reaches the continuum at first order (Wilson term)
    d = np.abs(e - shot.energy)
    p = np.log(d[-2] / d[-1]) / np.log(h[-2] / h[-1])
    assert abs(p - 1.0) <= 0.1, f"measured order {p:.3f}"


def test_criterion_6_eigenpairs_satisfy_reduced_equations(
        free_cases, scalar_cases, pt_cases):
    results = [c.result for c in (*free_cases.values(),
                                  *scalar_cases.values(),
                                  *pt_cases.values())]
    for res in results:
        bound = 10.0 * res.solver_tolerance
        worst = 0.0
        for energy, state in zip(res.energies, res.states):
            r = reduced_residual_norm(
                energy,
                GridFunction(res.grid, state[:, 0]),
                GridFunction(res.grid, state[:, 1]),
                res.operator.potential, res.operator.mass,
                scheme=res.operator.scheme, wilson_r=res.operator.wilson_r)
            worst = max(worst, r)
        assert worst <= bound, f"worst residual {worst:.3e} > {bound:.1e}"


def test_criterion_7_repeat_runs_are_byte_identical(tmp_path):
    ini = tmp_path / "free.ini"
    ini.write_text(
        "[grid]\n"
        "x_min = -3.141592653589793\n"
        "x_max = 3.141592653589793\n"
        "n_points = 256\n"
        "boundary = periodic\n"
        "\n"
        "[mass]\n"
        "family = constant\n"
        "m0 = 1.0\n"
        "\n"
        "[solver]\n"
        "wilson_r = 1.0\n"
    )
    outs = []
    for d in ("first", "second"):
        out = tmp_path / d
        assert main(["spectrum", str(ini), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert names  # at least the spectrum table must exist
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
