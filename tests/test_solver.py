"""Matrix eigensolve (ordering, residual gate, reality tags) and shooting."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from dirac1d import (ConvergenceError, GridError, GridFunction,
                     LorentzPotential, MassProfile, SpectrumResult, Spinor,
                     assemble_hamiltonian, build_grid, classify_reality,
                     pt_vector_potential, sample_mass, shooting_solve,
                     solve_spectrum)
from dirac1d import solver
from dirac1d.solver import (_coefficient_table, _ordered_product,
                            _step_matrices, _trajectory)

from helpers import (dispersion_multiset, reference_rk4_segment,
                     reference_rk4_substep)


def free_operator(n, m=1.0, wilson_r=1.0):
    g = build_grid(-np.pi, np.pi, n, boundary="periodic")
    mass = sample_mass(MassProfile("constant", m0=m), g)
    return assemble_hamiltonian(g, LorentzPotential.zero(g), mass,
                                wilson_r=wilson_r)


def test_rest_states_present():
    result = solve_spectrum(free_operator(32), max_pairs=4)
    e = result.energies
    assert np.min(np.abs(e - 1.0)) <= 1e-10
    assert np.min(np.abs(e + 1.0)) <= 1e-10


def test_full_spectrum_matches_dispersion():
    n, m, r = 64, 0.5, 0.7
    op = free_operator(n, m=m, wilson_r=r)
    result = solve_spectrum(op, max_pairs=2 * n)
    assert np.max(np.abs(result.energies.imag)) <= 1e-12
    oracle = dispersion_multiset(n, op.grid.h, m, r)
    assert np.max(np.abs(np.sort(result.energies.real) - oracle)) <= 1e-8


def test_ordering_and_truncation():
    result = solve_spectrum(free_operator(32), max_pairs=6)
    assert len(result.eigenpairs) == 6
    mags = np.abs(result.energies.real)
    assert np.all(np.diff(mags) >= -1e-12)
    assert np.all(result.residuals <= result.solver_tolerance)


def test_unreachable_tolerance_raises():
    with pytest.raises(ConvergenceError, match="residual"):
        solve_spectrum(free_operator(32), tol=1e-16)


def synthetic_result(energies):
    g = build_grid(0.0, 1.0, 8)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    ones = np.ones(8, dtype=complex)
    pairs = tuple(Spinor(grid=g, plus_component=ones,
                         minus_component=np.zeros(8), energy=e)
                  for e in energies)
    return SpectrumResult(eigenpairs=pairs,
                          residuals=np.zeros(len(pairs)),
                          classification=("real",) * len(pairs),
                          solver_tolerance=1e-9, scheme="central_wilson",
                          wilson_r=1.0, mass=mass,
                          potential=LorentzPotential.zero(g))


def test_classify_tiny_imaginary_parts_as_real():
    res = classify_reality(synthetic_result([2.0 + 1e-15j, 2.0 - 1e-15j]))
    assert res.classification == ("real", "real")


def test_classify_conjugate_pair_and_real():
    res = classify_reality(synthetic_result([1.0 + 0.5j, 1.0 - 0.5j, 3.0]))
    assert res.classification == ("complex_pair_member",
                                  "complex_pair_member", "real")


def test_classify_partner_outside_window():
    res = classify_reality(synthetic_result([1.0 + 0.5j, 3.0]))
    assert res.classification == ("complex_unpaired", "real")


def test_uniform_imaginary_shift_has_no_conjugate_partners():
    # H + iw: every eigenvalue moves to the same half-plane, so nothing pairs
    n = 32
    g = build_grid(-np.pi, np.pi, n, boundary="periodic")
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    pot = LorentzPotential.from_channels(
        g, v_t=GridFunction.constant(g, 0.2j))
    op = assemble_hamiltonian(g, pot, mass)
    result = solve_spectrum(op, max_pairs=8)
    assert all(tag == "complex_unpaired" for tag in result.classification)
    assert np.allclose(result.energies.imag, 0.2, atol=1e-10)


def test_broken_phase_comes_in_conjugate_pairs():
    # strongly imaginary odd potential i*c*x is PT-symmetric, so complex
    # eigenvalues must appear as conjugate pairs (in the full spectrum; the
    # retained low-|Re| window may cut a pair in half)
    g = build_grid(-4.0, 4.0, 120)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    pot = LorentzPotential.from_channels(
        g, v_t=GridFunction(g, 2.0j * g.nodes))
    op = assemble_hamiltonian(g, pot, mass)
    result = solve_spectrum(op, max_pairs=12)
    tags = result.classification
    complex_kept = [e for e, t in zip(result.energies, tags) if t != "real"]
    assert len(complex_kept) >= 2
    full = np.linalg.eigvals(op.matrix)
    for e in complex_kept:
        assert np.min(np.abs(np.conj(e) - full)) <= 1e-8
    members = np.array([e for e, t in zip(result.energies, tags)
                        if t == "complex_pair_member"])
    assert len(members) % 2 == 0
    for e in members:
        others = members[np.abs(members - e) > 0]
        assert np.min(np.abs(np.conj(e) - others)) <= 1e-8


# ------------------------------------------------------------------ shooting

def box_parts(n=201, length=8.0):
    g = build_grid(0.0, length, n)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    return g, LorentzPotential.zero(g), mass


def test_shooting_free_box_against_quantization():
    # phi_plus = sin(n pi x / L) solves the free system exactly, so the
    # matching energies are E_n = sqrt(m^2 + (n pi / L)^2)
    g, pot, mass = box_parts()
    e1 = np.sqrt(1.0 + (np.pi / 8.0) ** 2)
    out = shooting_solve(g, pot, mass, energy_guess=1.1)
    assert out.energy.real == pytest.approx(e1, abs=1e-6)
    assert abs(out.energy.imag) <= 1e-10
    assert out.match_mismatch <= 1e-8

    e2 = np.sqrt(1.0 + (2.0 * np.pi / 8.0) ** 2)
    out2 = shooting_solve(g, pot, mass, energy_guess=1.27)
    assert out2.energy.real == pytest.approx(e2, abs=1e-6)


def test_shooting_self_consistent_under_substep_refinement():
    g, pot, mass = box_parts()
    coarse = shooting_solve(g, pot, mass, energy_guess=1.1, substeps=2)
    fine = shooting_solve(g, pot, mass, energy_guess=1.1, substeps=8)
    assert abs(coarse.energy - fine.energy) <= 1e-7


def test_shooting_rejects_roots_outside_radius():
    g, pot, mass = box_parts()
    with pytest.raises(ConvergenceError, match="radius"):
        shooting_solve(g, pot, mass, energy_guess=1.0, search_radius=0.05)


def test_shooting_complex_guess_lands_on_real_level():
    g, pot, mass = box_parts()
    e1 = np.sqrt(1.0 + (np.pi / 8.0) ** 2)
    out = shooting_solve(g, pot, mass, energy_guess=1.05 + 0.02j)
    assert abs(out.energy.imag) <= 1e-8
    assert out.energy.real == pytest.approx(e1, abs=1e-6)
    assert out.iterations >= 1



def test_shooting_complex_guesses_reach_root_of_flat_determinant():
    # v_t = 0.6 i x: |det| stays below 1e-12 over a wide region near the real
    # axis, so a fixed bound on |det| stops the search short of the root.
    # Reference: Newton on the same RK4 determinant in 40-digit arithmetic.
    g = build_grid(-6.0, 6.0, 121)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    pot = LorentzPotential.from_channels(g, v_t=GridFunction(g, 0.6j * g.nodes))
    root = 3.4165079898873747 - 0.8158225479949108j
    for guess, expected in ((1.2 + 0.1j, root), (1.8 + 0.2j, root),
                            (-1.5 + 0.1j, -root), (2.5 - 0.2j, root)):
        out = shooting_solve(g, pot, mass, energy_guess=guess)
        assert abs(out.energy - expected) <= 1e-9

def test_shooting_energy_converges_at_fourth_order():
    # spline coefficients and RK4 are both O(h^4): n=400 is already within
    # 1e-8 of n=1600 (measured 9.7e-9), and with an error ~ h^4 the ratio
    # (E400 - E1600)/(E800 - E1600) is (4^4 - 1)/(2^4 - 1) = 17 (measured 17.1)
    profile = MassProfile("quadratic_even", m0=1.0, alpha=1.0)
    energies = {}
    for n in (400, 800, 1600):
        g = build_grid(-8.0, 8.0, n)
        pot = LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g))
        out = shooting_solve(g, pot, sample_mass(profile, g), energy_guess=1.6)
        energies[n] = out.energy
    assert abs(energies[400] - energies[1600]) <= 1e-7
    ratio = (energies[400] - energies[1600]) / (energies[800] - energies[1600])
    assert abs(ratio - 17.0) <= 2.0


def four_channel_parts():
    """All four channels on [-3, 3], n=41, complex v_t and constant v_sp.

    Two masses: a double well, and one that varies by less than np.allclose
    resolves (so it must still be splined, not taken as constant).
    """
    g = build_grid(-3.0, 3.0, 41)
    x = g.nodes
    pot = LorentzPotential.from_channels(
        g, v_t=GridFunction(g, 0.3j * x), v_sp=GridFunction.constant(g, 0.05),
        v_s=GridFunction(g, 0.2 * x * x), v_p=GridFunction(g, 0.1 * np.tanh(x)))
    masses = (sample_mass(MassProfile("double_well", m0=1.0, lam=0.3, a=1.0), g),
              GridFunction(g, 100.0 * (1.0 + 1e-7 * x * x)))
    return g, pot, masses


def test_coefficient_table_matches_stagewise_spline_calls():
    # reference: one spline per hand-built block entry, called at one stage
    # abscissa at a time with the RK4 stage expressions; the vectorised
    # table must agree bit for bit
    g, pot, masses = four_channel_parts()
    x = g.nodes
    vt, vsp, vs, vp = (f.values for f in (pot.v_t, pot.v_sp, pot.v_s, pot.v_p))
    for mass in masses:
        c = mass.values + vs
        entries = [[vt + vsp, c + 1.0j * vp], [c - 1.0j * vp, vt - vsp]]
        splines = [[CubicSpline(x, e) for e in row] for row in entries]
        for xs in (x[:21], x[20:][::-1]):
            for substeps in (1, 3):
                table = _coefficient_table(xs, pot, mass, substeps)
                assert table.shape == (len(xs) - 1, substeps, 3, 2, 2)
                for i in range(len(xs) - 1):
                    dx = (xs[i + 1] - xs[i]) / substeps
                    for s in range(substeps):
                        xa = xs[i] + s * dx
                        for k, xq in enumerate((xa, xa + 0.5 * dx, xa + dx)):
                            expected = [[complex(f(xq)) for f in row]
                                        for row in splines]
                            assert table[i, s, k].tolist() == expected


def test_step_matrices_match_reference_rk4():
    # P y must be one RK4 substep of the vector loop, and the ordered
    # product and the sequential pass must reproduce the loop's segment
    g, pot, masses = four_channel_parts()
    rng = np.random.default_rng(7)
    y_wall = np.array([0.0, 1.0], dtype=complex)
    for mass in masses:
        for xs in (g.nodes[:21], g.nodes[20:][::-1]):
            for substeps in (1, 3):
                table = _coefficient_table(xs, pot, mass, substeps)
                dx = np.diff(xs)[:, None] / substeps
                for energy in (1.3, 1.1 - 0.4j):
                    steps = _step_matrices(energy, table, dx)
                    assert steps.shape == (2, 2, (len(xs) - 1) * substeps)
                    for i in range(len(xs) - 1):
                        for s in range(substeps):
                            y = rng.normal(size=2) + 1.0j * rng.normal(size=2)
                            expected = reference_rk4_substep(
                                y, energy, dx[i, 0], table[i, s].tolist())
                            got = steps[:, :, i * substeps + s] @ y
                            assert (np.linalg.norm(got - expected)
                                    <= 1e-14 * np.linalg.norm(expected))

                    reference = reference_rk4_segment(xs, y_wall, energy, table)
                    path = _trajectory(steps, substeps, y_wall)
                    scale = np.linalg.norm(reference, axis=1)
                    assert np.all(np.linalg.norm(path - reference, axis=1)
                                  <= 1e-12 * scale)
                    # the tree product is known only up to a positive factor
                    end = _ordered_product(steps)[:, 1]
                    end = end / np.linalg.norm(end)
                    assert (np.linalg.norm(end - reference[-1] / scale[-1])
                            <= 1e-12)


def test_shooting_rescales_a_solution_that_would_overflow():
    # alpha = 1 on [-14, 14]: the unscaled amplitude grows to about e^928
    # from each wall, far past the double range, so an unscaled product
    # gives an inf/nan determinant.  Reference energy from the vector RK4
    # loop with its 1e150 rescale.
    profile = MassProfile("quadratic_even", m0=1.0, alpha=1.0)
    g = build_grid(-14.0, 14.0, 1200)
    pot = LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g))
    out = shooting_solve(g, pot, sample_mass(profile, g), energy_guess=1.6)
    assert abs(out.energy - 1.6364065780519570) <= 1e-10
    assert out.match_mismatch <= 1e-10
    amplitude = np.hypot(np.abs(out.spinor.plus_component),
                         np.abs(out.spinor.minus_component))
    assert np.all(np.isfinite(amplitude))
    # the trial solution starts at amplitude 1 on the wall; next to it the
    # spinor is now far below that, so the pass went through the rescale
    assert amplitude[1] <= 1e-200 * amplitude.max()


def test_shooting_non_convergence_reports_attainable_accuracy(monkeypatch):
    g, pot, mass = box_parts()
    monkeypatch.setattr(solver, "SHOOTING_MAX_ITER", 2)
    with pytest.raises(ConvergenceError,
                       match=r"did not converge in 2 iterations \(last "
                             r"\|det\|=\S+, last step \|dE\|/max\(1,\|E\|\)="
                             r"\d\.\d{3}e[+-]\d+, tol=1e-12\)"):
        shooting_solve(g, pot, mass, energy_guess=1.05 + 0.02j)


def test_shooting_input_validation():
    g, pot, mass = box_parts(n=64)
    gp = build_grid(0.0, 8.0, 64, boundary="periodic")
    massp = sample_mass(MassProfile("constant", m0=1.0), gp)
    with pytest.raises(GridError, match="dirichlet"):
        shooting_solve(gp, LorentzPotential.zero(gp), massp, 1.0)
    with pytest.raises(GridError, match="substeps"):
        shooting_solve(g, pot, mass, 1.0, substeps=0)
