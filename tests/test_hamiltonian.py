"""Operator assembly: stencils, Wilson term, Hermiticity, plane-wave oracle."""

import numpy as np
import pytest

from dirac1d import (Grid1D, GridError, GridFunction, LorentzPotential,
                     MassProfile, assemble_hamiltonian,
                     hermiticity_of_operator, pt_vector_potential,
                     reduced_equations_rhs, reduced_residual_norm,
                     sample_mass, solve_spectrum)

from helpers import reference_operator, symbol_eigenvector


def free_parts(n, boundary="periodic", m=1.0):
    g = Grid1D(-np.pi, np.pi, n, boundary=boundary)
    mass = sample_mass(MassProfile("constant", m0=m), g)
    return g, LorentzPotential.from_channels(g), mass


def test_matrix_size_and_active_nodes():
    g, pot, mass = free_parts(16, boundary="dirichlet")
    op = assemble_hamiltonian(g, pot, mass)
    assert op.size == 2 * 14
    assert list(op.active_index) == list(range(1, 15))
    gp, potp, massp = free_parts(16)
    opp = assemble_hamiltonian(gp, potp, massp)
    assert opp.size == 32
    assert list(opp.active_index) == list(range(16))


def test_input_validation():
    g, pot, mass = free_parts(16)
    z = GridFunction.constant(g, 1.0)
    # the operator and the reduced-equation oracle check the stencil alike
    for check in (lambda **kw: assemble_hamiltonian(g, pot, mass, **kw),
                  lambda **kw: reduced_residual_norm(1.0, z, z, pot, mass, **kw)):
        for scheme in ("upwind", "central"):
            with pytest.raises(GridError, match="scheme"):
                check(scheme=scheme)
        for bad in (-0.5, -3.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(GridError,
                               match="wilson_r must be finite and non-negative"):
                check(wilson_r=bad)
    g2 = Grid1D(-1.0, 1.0, 16)
    with pytest.raises(GridError, match="grid"):
        assemble_hamiltonian(g2, pot, mass)
    # a finite wilson_r whose on-site Wilson term 2w = wilson_r/h, or w
    # itself, overflows
    big = float(np.finfo(float).max)
    for r in (big, 0.75 * big * (2.0 * g.h)):
        with pytest.raises(GridError, match=r"wilson_r = \S+ overflows"):
            assemble_hamiltonian(g, pot, mass, wilson_r=r)


def test_constant_spinor_is_exact_rest_state():
    # k=0 plane wave: (1, 1) has E = +m, (1, -1) has E = -m, both exactly
    g, pot, mass = free_parts(24, m=1.0)
    op = assemble_hamiltonian(g, pot, mass)
    ones = np.ones(24, dtype=complex)
    v_plus = np.concatenate([ones, ones])
    v_minus = np.concatenate([ones, -ones])
    assert np.max(np.abs(op.matrix @ v_plus - v_plus)) <= 1e-14
    assert np.max(np.abs(op.matrix @ v_minus + v_minus)) <= 1e-14


def test_plane_wave_modes_match_symbol():
    # every lattice momentum, both branches, against the 2x2 symbol oracle
    n, m, r = 32, 0.8, 1.0
    g, pot, mass = free_parts(n, m=m)
    op = assemble_hamiltonian(g, pot, mass, wilson_r=r)
    for j in (1, 5, n // 2, n - 3):
        kh = 2.0 * np.pi * j / n
        wave = np.exp(1j * (kh / g.h) * g.nodes)
        for branch in (+1, -1):
            e, amp = symbol_eigenvector(kh, g.h, m, r, branch)
            v = np.concatenate([amp[0] * wave, amp[1] * wave])
            resid = np.linalg.norm(op.matrix @ v - e * v) / np.linalg.norm(v)
            assert resid <= 1e-10, (j, branch, resid)


def test_random_vector_is_not_an_eigenvector():
    rng = np.random.default_rng(23)
    g, pot, mass = free_parts(24)
    op = assemble_hamiltonian(g, pot, mass)
    v = rng.normal(size=48) + 1j * rng.normal(size=48)
    e_guess = (v.conj() @ op.matrix @ v) / (v.conj() @ v)
    resid = np.linalg.norm(op.matrix @ v - e_guess * v) / np.linalg.norm(v)
    assert resid > 1e-3


def test_wilson_entries():
    # the Wilson term adds -(r/2h) {1, -2, 1} inside the mass coupling block
    n, r = 16, 0.7
    g = Grid1D(0.0, 1.5, n)
    mass = sample_mass(MassProfile("constant", m0=2.0), g)
    op = assemble_hamiltonian(g, LorentzPotential.from_channels(g), mass, wilson_r=r)
    k = n - 2
    w = r / (2.0 * g.h)
    block = op.matrix[:k, k:]
    assert block[3, 3] == pytest.approx(2.0 + 2.0 * w)
    assert block[3, 4] == pytest.approx(-w)
    assert block[4, 3] == pytest.approx(-w)
    # central derivative sits in the diagonal blocks with weight -i/2h
    assert op.matrix[3, 4] == pytest.approx(-1j / (2.0 * g.h))
    assert op.matrix[k + 3, k + 4] == pytest.approx(1j / (2.0 * g.h))


def test_hermitian_for_real_channels():
    rng = np.random.default_rng(5)
    g = Grid1D(-3.0, 3.0, 40)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    chans = {name: GridFunction(g, rng.normal(size=40) + 0.0j)
             for name in ("v_t", "v_sp", "v_s", "v_p")}
    pot = LorentzPotential.from_channels(g, **chans)
    op = assemble_hamiltonian(g, pot, mass)
    assert hermiticity_of_operator(op) <= 1e-13


def test_hermiticity_defect_set_by_imaginary_potential():
    g = Grid1D(-6.0, 6.0, 201)
    profile = MassProfile("quadratic_even", m0=1.0, alpha=1.0)
    mass = sample_mass(profile, g)
    a = pt_vector_potential(profile, g)
    pot = LorentzPotential.from_channels(g, v_t=a)
    op = assemble_hamiltonian(g, pot, mass)
    # the kinetic and Wilson parts are Hermitian, so the defect is exactly
    # the potential's: 2 max|A|
    assert hermiticity_of_operator(op) == pytest.approx(
        2.0 * np.max(np.abs(a.values)), abs=1e-12)


def test_matrix_is_built_once_and_read_only():
    g, pot, mass = free_parts(16)
    op = assemble_hamiltonian(g, pot, mass)
    assert op.matrix is op.matrix
    assert not op.matrix.flags.writeable
    assert not op.blocks.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 1.0
    assert op.blocks.shape == (16, 2, 2) and op.size == 32


def _reference_cases():
    """The operators of the bit-for-bit comparison, as (id, grid, pot, mass, r)."""
    rng = np.random.default_rng(31)
    g = Grid1D(-10.0, 10.0, 160)
    profile = MassProfile("quadratic_even", m0=1.0, alpha=0.1)
    pt = LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g))
    yield "readme_pt", g, pt, sample_mass(profile, g), 1.0

    g = Grid1D(-6.0, 6.0, 90)
    scalar = LorentzPotential.from_channels(
        g, v_s=GridFunction(g, 0.5 * np.abs(g.nodes)))
    yield "dirichlet_scalar", g, scalar, sample_mass(MassProfile("constant"), g), 1.0

    g = Grid1D(-4.0, 4.0, 72, boundary="periodic")
    chans = {name: GridFunction(g, rng.normal(size=72))
             for name in ("v_t", "v_sp", "v_s", "v_p")}
    yield ("periodic_all_channels", g, LorentzPotential.from_channels(g, **chans),
           sample_mass(MassProfile("linear", m0=2.0, lam=0.1), g), 0.7)

    g, pot, mass = free_parts(64)
    yield "free_periodic", g, pot, mass, 0.0

    g = Grid1D(-5.0, 5.0, 80)
    chans = {name: GridFunction(g, rng.normal(size=80) + 1j * rng.normal(size=80))
             for name in ("v_sp", "v_p")}
    yield ("complex_v_sp_v_p", g, LorentzPotential.from_channels(g, **chans),
           sample_mass(MassProfile("constant"), g), 0.0)


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_matrix_and_hermiticity_match_the_kron_reference_bit_for_bit(case):
    _, g, pot, mass, r = case
    op = assemble_hamiltonian(g, pot, mass, wilson_r=r)
    matrix, hermiticity = reference_operator(g, pot, mass, r)
    assert np.array_equal(op.matrix.view(np.uint64), matrix.view(np.uint64))
    assert hermiticity_of_operator(op) == hermiticity


def test_massless_free_operator_is_hermitian():
    g = Grid1D(-2.0, 2.0, 20)
    zero_mass = GridFunction.constant(g, 0.0)  # bypasses the mass validator
    op = assemble_hamiltonian(g, LorentzPotential.from_channels(g), zero_mass)
    assert hermiticity_of_operator(op) == 0.0


def test_reduced_equations_match_matrix_action():
    # the shift-based residual oracle and the assembled matrix agree row
    # by row, for both boundary types, with and without the Wilson term
    rng = np.random.default_rng(8)
    for boundary in ("periodic", "dirichlet"):
        for r in (0.0, 1.3):
            n = 20
            g = Grid1D(-1.0, 1.0, n, boundary=boundary)
            mass = sample_mass(MassProfile("constant", m0=1.0), g)
            chans = {name: GridFunction(g, rng.normal(size=n)
                                        + 1j * rng.normal(size=n))
                     for name in ("v_t", "v_sp", "v_s", "v_p")}
            pot = LorentzPotential.from_channels(g, **chans)
            op = assemble_hamiltonian(g, pot, mass, wilson_r=r)

            full = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
            if boundary == "dirichlet":
                full[:, 0] = full[:, -1] = 0.0
            act = op.active_index
            v = np.concatenate([full[0, act], full[1, act]])
            energy = 0.37 - 0.11j
            out = energy * v - op.matrix @ v
            rp, rm = reduced_equations_rhs(
                energy, GridFunction(g, full[0]), GridFunction(g, full[1]),
                pot, mass, wilson_r=r)
            k = len(act)
            assert np.max(np.abs(rp.values[act] - out[:k])) <= 1e-12
            assert np.max(np.abs(rm.values[act] - out[k:])) <= 1e-12


def test_oracle_defaults_match_operator_defaults():
    # an eigenpair of the default operator passes the oracle at its defaults
    g = Grid1D(-5.0, 5.0, 100)
    pot = LorentzPotential.from_channels(g)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    result = solve_spectrum(assemble_hamiltonian(g, pot, mass), max_pairs=6)
    for energy, state in zip(result.energies, result.states):
        plus, minus = GridFunction(g, state[:, 0]), GridFunction(g, state[:, 1])
        assert reduced_residual_norm(energy, plus, minus, pot, mass) <= 1e-12
        rp, rm = reduced_equations_rhs(energy, plus, minus, pot, mass)
        assert max(np.max(np.abs(rp.values)), np.max(np.abs(rm.values))) <= 1e-12


def test_reduced_residual_norm_rejects_zero_spinor():
    g = Grid1D(-1.0, 1.0, 12)
    z = GridFunction.constant(g, 0.0)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    with pytest.raises(GridError, match="zero spinor"):
        reduced_residual_norm(1.0, z, z, LorentzPotential.from_channels(g), mass)
