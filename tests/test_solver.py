"""Matrix eigensolve (ordering, residual gate, reality tags) and shooting."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from dirac1d import (ConvergenceError, Grid1D, GridError, GridFunction,
                     LorentzPotential, MassProfile, assemble_hamiltonian,
                     hermiticity_of_operator, pt_vector_potential,
                     sample_mass, shooting_solve, solve_spectrum)
from dirac1d import solver
from dirac1d.lorentz import local_blocks
from dirac1d.solver import (_EYE, _coefficient_table, _evaluate_steps,
                            _matching_determinants, _ordered_product,
                            _reality_tags, _step_polynomial, _step_quartics,
                            _trajectory)

from conftest import pt_operator
from helpers import (canonical_sorted, dispersion_multiset,
                     reference_node_pass, reference_rk4_segment,
                     reference_rk4_substep, reference_segment_polynomials)


def free_operator(n, m=1.0, wilson_r=1.0):
    g = Grid1D(-np.pi, np.pi, n, boundary="periodic")
    mass = sample_mass(MassProfile("constant", m0=m), g)
    return assemble_hamiltonian(g, LorentzPotential.from_channels(g), mass,
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
    assert len(result.energies) == 6
    mags = np.abs(result.energies.real)
    assert np.all(np.diff(mags) >= -1e-12)
    assert np.all(result.residuals <= result.solver_tolerance)


def spy_eigensolvers(monkeypatch):
    """Record which LAPACK eigensolver each solve calls, by name, in order."""
    calls = []
    for name in ("eig", "eigh"):
        real = getattr(np.linalg, name)

        def spy(matrix, _real=real, _name=name):
            calls.append(_name)
            return _real(matrix)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_unreachable_tolerance_raises(monkeypatch):
    calls = spy_eigensolvers(monkeypatch)
    with pytest.raises(ConvergenceError, match="residual"):
        solve_spectrum(free_operator(32), tol=1e-16)
    assert calls == ["eigh"]


def scalar_box_operator(n=120, **channels):
    # V_s = |x| between hard walls: H = sigma_z p + sigma_x (M + V_s + Wilson)
    # anticommutes with sigma_y, so the spectrum is +-E symmetric; channels
    # adds other channels on top of that
    g = Grid1D(-8.0, 8.0, n)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    pot = LorentzPotential.from_channels(
        g, v_s=GridFunction(g, np.abs(g.nodes)), **channels)
    return assemble_hamiltonian(g, pot, mass)


def test_plus_minus_ties_order_negative_first():
    op = scalar_box_operator()
    result = solve_spectrum(op, max_pairs=20)
    e = result.energies.real
    assert np.all(e[0::2] < 0.0)
    assert np.allclose(e[1::2], -e[0::2], rtol=0.0, atol=1e-10)
    oracle = canonical_sorted(np.linalg.eigvals(op.matrix), 1e-9)[:20]
    assert np.max(np.abs(result.energies - oracle)) <= 1e-12


def test_exactly_hermitian_operator_gives_real_energies(monkeypatch):
    calls = spy_eigensolvers(monkeypatch)
    result = solve_spectrum(scalar_box_operator(), max_pairs=20)
    assert calls == ["eigh"]
    assert np.all(result.energies.imag == 0.0)
    assert np.all(result.residuals <= result.solver_tolerance)
    assert set(result.classification) == {"real"}


def test_any_anti_hermitian_part_takes_general_solver(monkeypatch):
    # eigh reads one triangle and would drop this part silently, so the
    # Hermitian test must be exact, not a tolerance
    calls = spy_eigensolvers(monkeypatch)
    g = Grid1D(-8.0, 8.0, 120)
    op = scalar_box_operator(v_t=GridFunction.constant(g, 1e-300j))
    result = solve_spectrum(op, max_pairs=20)
    assert calls == ["eig"]
    assert np.all(result.energies.imag == 0.0)
    assert set(result.classification) == {"real"}


def test_real_hermitian_operators_reach_lapack_as_real_matrices(monkeypatch):
    # in the spinor basis rotated by (1 - i sigma_1)/sqrt(2) the operator is
    # real for real mass, V_s, V_t and V_p without V_sp, on either boundary
    # and with or without the Wilson term; V_sp makes it complex
    seen = []
    for name in ("eig", "eigh"):
        def spy(matrix, _real=getattr(np.linalg, name), _name=name):
            seen.append((_name, matrix))
            return _real(matrix)
        monkeypatch.setattr(np.linalg, name, spy)
    g = Grid1D(-8.0, 8.0, 120)
    x = g.nodes
    cases = {
        "scalar box, Wilson": (scalar_box_operator(), np.float64),
        "free periodic, wilson_r = 0": (free_operator(64, wilson_r=0.0),
                                        np.float64),
        "real V_p": (scalar_box_operator(v_p=GridFunction(g, 0.5 * np.tanh(x))),
                     np.float64),
        "real V_t": (scalar_box_operator(v_t=GridFunction(g, 0.3 * x)),
                     np.float64),
        "V_sp": (scalar_box_operator(v_sp=GridFunction(g, 0.4 * np.cos(x))),
                 np.complex128),
    }
    for label, (op, dtype) in cases.items():
        seen.clear()
        result = solve_spectrum(op, max_pairs=op.size)
        (name, matrix), = seen
        assert name == "eigh" and matrix.dtype == dtype, label
        # measured at most 9.5 eps * max|E| (5.3e-14 at max|E| = 25.3, real
        # V_t) against the complex Hermitian routine on op.matrix itself
        oracle = np.linalg.eigvalsh(op.matrix)
        gap = np.max(np.abs(np.sort(result.energies.real) - oracle))
        assert gap <= 32 * np.finfo(float).eps * np.max(np.abs(oracle)), label
        assert np.all(result.energies.imag == 0.0), label
    g = Grid1D(-6.0, 6.0, 100)
    profile = MassProfile("quadratic_even", m0=1.0, alpha=0.1)
    op = assemble_hamiltonian(
        g, LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g)),
        sample_mass(profile, g))
    seen.clear()
    solve_spectrum(op)
    (name, matrix), = seen
    assert name == "eig" and matrix is op.matrix


def test_rotated_matrix_realness_is_read_from_the_blocks():
    # U^dagger H U of an exactly Hermitian operator is real exactly when
    # every active block has h00 == h11: the blocks' test against the
    # imaginary part of the whole rotated matrix, on random Hermitian
    # operators over both boundaries and wilson_r in {0, 0.7, 1}, with and
    # without V_sp (on a few nodes only, so walls can hide it) and V_p, and
    # on a V_sp = 1 that V_t = 1e20 rounds away
    rng = np.random.default_rng(20)
    ops = []
    for boundary in ("dirichlet", "periodic"):
        for wilson_r in (0.0, 0.7, 1.0):
            for with_sp in (False, True):
                for with_p in (False, True):
                    for _ in range(4):
                        n = int(rng.integers(8, 24))
                        g = Grid1D(-3.0, 3.0, n, boundary=boundary)
                        v_s, v_t, v_sp, v_p, m = rng.normal(size=(5, n))
                        channels = {"v_s": GridFunction(g, v_s),
                                    "v_t": GridFunction(g, v_t)}
                        if with_sp:
                            channels["v_sp"] = GridFunction(
                                g, v_sp * (rng.random(n) < 0.3))
                        if with_p:
                            channels["v_p"] = GridFunction(g, v_p)
                        mass = GridFunction(g, 1.0 + m)
                        ops.append(assemble_hamiltonian(
                            g, LorentzPotential.from_channels(g, **channels),
                            mass, wilson_r=wilson_r))
    g = Grid1D(-3.0, 3.0, 20)
    rounded = assemble_hamiltonian(
        g, LorentzPotential.from_channels(g, v_t=GridFunction.constant(g, 1e20),
                                          v_sp=GridFunction.constant(g, 1.0)),
        sample_mass(MassProfile("constant", m0=1.0), g))
    ops.append(rounded)
    outcomes = []
    for op in ops:
        assert hermiticity_of_operator(op) == 0.0
        full = solver._rotated(op.matrix, False)
        real = np.array_equal(op.blocks[:, 0, 0], op.blocks[:, 1, 1])
        assert real == (not full.imag.any())
        got = solver._rotated(op.matrix, real)
        expected = full.real if real else full
        assert got.dtype == expected.dtype
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        outcomes.append(real)
    assert outcomes[-1] and set(outcomes) == {True, False}


def test_states_are_the_kept_columns_on_the_full_grid(monkeypatch):
    # the per-column embedding the stack replaced, restated as a loop: each
    # kept column, rotated back from the basis eigh solved in to
    # (top - i bot, bot - i top), lands with its plus and minus halves on the
    # active nodes, and the wall rows of a dirichlet grid stay zero
    lapack = []
    for name in ("eig", "eigh"):
        def spy(matrix, _real=getattr(np.linalg, name)):
            lapack.append(_real(matrix))
            return lapack[-1]
        monkeypatch.setattr(np.linalg, name, spy)
    for op in (scalar_box_operator(n=40), free_operator(16)):
        lapack.clear()
        result = solve_spectrum(op, max_pairs=10)
        (w, v), = lapack
        energies = w.astype(complex)
        energies.imag[solver._is_real(energies, 1e-9)] = 0.0
        keep = solver._canonical_order(energies, 1e-9)[:10]
        half = op.size // 2
        expected = np.zeros((10, op.grid.n_points, 2), dtype=complex)
        for k, col in enumerate(keep):
            top, bot = v[:half, col], v[half:, col]
            expected[k, op.active_index, 0] = top - 1j * bot
            expected[k, op.active_index, 1] = bot - 1j * top
        assert np.array_equal(result.states, expected)
        assert np.array_equal(result.energies, energies[keep])
        if op.grid.boundary == "dirichlet":
            assert np.all(result.states[:, [0, -1]] == 0.0)


def test_eigenpairs_are_a_view_of_the_read_only_stack():
    result = solve_spectrum(scalar_box_operator(n=40), max_pairs=6)
    assert len(result.eigenpairs) == 6
    for k, (energy, state) in enumerate(result.eigenpairs):
        assert energy == result.energies[k]
        assert np.shares_memory(state, result.states) and not state.flags.writeable
        assert np.array_equal(state, result.states[k])
    for array in (result.energies, result.states):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_imaginary_parts_above_reality_tol_are_kept():
    # a constant v_t = 1e-6i shifts every level by exactly 1e-6i
    g = Grid1D(-8.0, 8.0, 120)
    op = scalar_box_operator(v_t=GridFunction.constant(g, 1e-6j))
    result = solve_spectrum(op, max_pairs=20)
    assert "real" not in result.classification
    assert np.allclose(result.energies.imag, 1e-6, rtol=1e-6, atol=0.0)


def reality_tags(energies):
    return _reality_tags(np.array(energies, dtype=complex), 1e-9)


def test_classify_tiny_imaginary_parts_as_real():
    assert reality_tags([2.0 + 1e-15j, 2.0 - 1e-15j]) == ("real", "real")


def test_classify_conjugate_pair_and_real():
    assert reality_tags([1.0 + 0.5j, 1.0 - 0.5j, 3.0]) == (
        "complex_pair_member", "complex_pair_member", "real")


def test_classify_partner_outside_window():
    assert reality_tags([1.0 + 0.5j, 3.0]) == ("complex_unpaired", "real")


def test_uniform_imaginary_shift_has_no_conjugate_partners():
    # H + iw: every eigenvalue moves to the same half-plane, so nothing pairs
    n = 32
    g = Grid1D(-np.pi, np.pi, n, boundary="periodic")
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
    g = Grid1D(-4.0, 4.0, 120)
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
    g = Grid1D(0.0, length, n)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    return g, LorentzPotential.from_channels(g), mass


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
    g = Grid1D(-6.0, 6.0, 121)
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
        g = Grid1D(-8.0, 8.0, n)
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
    g = Grid1D(-3.0, 3.0, 41)
    x = g.nodes
    pot = LorentzPotential.from_channels(
        g, v_t=GridFunction(g, 0.3j * x), v_sp=GridFunction.constant(g, 0.05),
        v_s=GridFunction(g, 0.2 * x * x), v_p=GridFunction(g, 0.1 * np.tanh(x)))
    masses = (sample_mass(MassProfile("double_well", m0=1.0, lam=0.3, a=1.0), g),
              GridFunction(g, 100.0 * (1.0 + 1e-7 * x * x)))
    return g, pot, masses


def test_coefficient_table_matches_stagewise_spline_calls():
    # reference: one spline per hand-built block entry, called at one stage
    # abscissa at a time with the RK4 stage expressions; the stacked table
    # of one segment and of two must agree bit for bit, and a shorter
    # segment's padded substeps have zero width and read its last node
    g, pot, masses = four_channel_parts()
    x = g.nodes
    vt, vsp, vs, vp = (f.values for f in (pot.v_t, pot.v_sp, pot.v_s, pot.v_p))
    for mass in masses:
        c = mass.values + vs
        entries = [[vt + vsp, c + 1.0j * vp], [c - 1.0j * vp, vt - vsp]]
        splines = [[CubicSpline(x, e) for e in row] for row in entries]
        spline = CubicSpline(x, local_blocks(pot, mass))
        for segments in ((x[:21],), (x[:21], x[20:][::-1]), (x[:21], x[23:][::-1])):
            length = max(len(xs) for xs in segments)
            for substeps in (1, 3):
                table, dx = _coefficient_table(segments, spline, substeps)
                width = (length - 1) * substeps
                assert table.shape == (3, 2, 2, len(segments) * width)
                assert dx.shape == (len(segments) * width,)
                for s, xs in enumerate(segments):
                    for i in range(length - 1):
                        for j in range(substeps):
                            col = s * width + i * substeps + j
                            if i < len(xs) - 1:
                                step = (xs[i + 1] - xs[i]) / substeps
                                xa = xs[i] + j * step
                                abscissas = (xa, xa + 0.5 * step, xa + step)
                            else:  # padding: a zero-width substep at the last node
                                step, abscissas = 0.0, (xs[-1],) * 3
                            assert dx[col] == step
                            for k, xq in enumerate(abscissas):
                                expected = [[complex(f(xq)) for f in row]
                                            for row in splines]
                                assert table[k][:, :, col].tolist() == expected


def test_step_matrices_match_reference_rk4():
    # P(E) y, with P the quartic evaluated by Horner's rule, must be one RK4
    # substep of the vector loop, and the ordered product and the node pass
    # must reproduce the loop's segment, for both segments of one stack
    g, pot, masses = four_channel_parts()
    rng = np.random.default_rng(7)
    y_wall = np.array([0.0, 1.0], dtype=complex)
    segments = (g.nodes[:21], g.nodes[20:][::-1])
    for mass in masses:
        spline = CubicSpline(g.nodes, local_blocks(pot, mass))
        for substeps in (1, 3):
            table, dx = _coefficient_table(segments, spline, substeps)
            poly = [c.reshape(2, 2, 2, -1) for c in _step_polynomial(table, dx)]
            # the table by segment, interval and substep, as the references
            # take it
            stages = table.transpose(3, 0, 1, 2).reshape(2, 20, substeps, 3, 2, 2)
            dx = dx.reshape(2, 20, substeps)
            assert len(poly) == 5
            for energy in (1.3, 1.1 - 0.4j):
                steps = _evaluate_steps(poly, np.array([energy]))
                assert steps.shape == (2, 2, 1, 2, 20 * substeps)
                steps = steps[:, :, 0]
                paths = _trajectory(steps, substeps, y_wall)
                # the tree product is known only up to a power of two
                ends = _ordered_product(steps)[:, 1].T
                for s, xs in enumerate(segments):
                    for i in range(20):
                        for j in range(substeps):
                            y = rng.normal(size=2) + 1.0j * rng.normal(size=2)
                            expected = reference_rk4_substep(
                                y, energy, dx[s, i, j], stages[s, i, j].tolist())
                            got = steps[:, :, s, i * substeps + j] @ y
                            assert (np.linalg.norm(got - expected)
                                    <= 1e-14 * np.linalg.norm(expected))

                    reference = reference_rk4_segment(xs, y_wall, energy, stages[s])
                    scale = np.linalg.norm(reference, axis=1)
                    assert np.all(np.linalg.norm(paths[s] - reference, axis=1)
                                  <= 1e-12 * scale)
                    end = ends[s] / np.linalg.norm(ends[s])
                    assert (np.linalg.norm(end - reference[-1] / scale[-1])
                            <= 1e-12)


def test_shooting_rescales_a_solution_that_would_overflow():
    # alpha = 1 on [-14, 14]: the unscaled amplitude grows to about e^928
    # from each wall, far past the double range, so an unscaled product
    # gives an inf/nan determinant.  Reference energy from the vector RK4
    # loop with its 1e150 rescale.
    parts = pt_overflow_parts()
    out = shooting_solve(*parts, energy_guess=1.6)
    assert abs(out.energy - 1.6364065780519570) <= 1e-10
    assert out.match_mismatch <= 1e-10
    assert out.state.shape == (parts[0].n_points, 2)
    assert not out.state.flags.writeable
    amplitude = np.hypot(np.abs(out.state[:, 0]), np.abs(out.state[:, 1]))
    assert np.all(np.isfinite(amplitude))
    # the trial solution starts at amplitude 1 on the wall; next to it the
    # spinor is now far below that, so the pass went through the rescale
    assert amplitude[1] <= 1e-200 * amplitude.max()


def shooter_build(g, pot, mass, substeps=2):
    """The shooter's two segments, the spline of its local blocks (for the
    per-segment reference) and its five (2, 2, 2, W) step-quartic stacks,
    from the build shooting_solve calls."""
    mid = g.n_points // 2
    segments = (g.nodes[: mid + 1], g.nodes[mid:][::-1])
    blocks = local_blocks(pot, mass)
    return segments, CubicSpline(g.nodes, blocks), _step_quartics(g.nodes, blocks, substeps)


def shooter_steps(g, pot, mass, energy, substeps=2):
    """The shooter's (2, 2, 2, W) substep stack at energy, with the number
    of real (unpadded) substeps of each segment."""
    segments, _, poly = shooter_build(g, pot, mass, substeps)
    steps = _evaluate_steps(poly, np.array([energy]))[:, :, 0]
    return steps, [(len(xs) - 1) * substeps for xs in segments]


def test_stacked_build_matches_the_per_segment_build_bit_for_bit():
    # the shooter's five coefficient stacks from one table and one quartic
    # over both segments, against one table and one quartic per segment
    # copied into identity-padded stacks; the right segment is padded on
    # even grids, and at n = 514 the padding adds a tree level
    profile = MassProfile("quadratic_even", m0=1.0, alpha=0.1)
    for n in (121, 514, 800, 801):
        g = Grid1D(-10.0, 10.0, n)
        pot = LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g))
        for substeps in (1, 2, 3):
            segments, spline, got = shooter_build(
                g, pot, sample_mass(profile, g), substeps)
            expected = reference_segment_polynomials(segments, spline, substeps)
            assert len(got) == len(expected) == 5
            for a, b in zip(got, expected):
                assert a.shape == b.shape == (2, 2, 2, n // 2 * substeps)
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def unit_aligned(a, b):
    """a and b scaled to unit norm, b's phase turned onto a's."""
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    phase = np.vdot(b, a)
    return a, b * phase / abs(phase)


def pt_overflow_parts():
    """alpha = 1 on [-14, 14], n = 1200: amplitudes grow to about e^928."""
    profile = MassProfile("quadratic_even", m0=1.0, alpha=1.0)
    g = Grid1D(-14.0, 14.0, 1200)
    pot = LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g))
    return g, pot, sample_mass(profile, g)


def test_prefix_scan_matches_sequential_node_pass():
    # the scan's segments against the retired node-by-node pass, at the
    # converged energy, on the overflow case (both segments rescaled) and on
    # v_t = 0.6 i x; measured worst entry 3.6e-16 over these solves
    g = Grid1D(-6.0, 6.0, 121)
    pot = LorentzPotential.from_channels(g, v_t=GridFunction(g, 0.6j * g.nodes))
    cases = [(pt_overflow_parts(), 1.6),
             ((g, pot, sample_mass(MassProfile("constant", m0=1.0), g)), 1.8 + 0.2j)]
    y_wall = np.array([0.0, 1.0], dtype=complex)
    for parts, guess in cases:
        energy = shooting_solve(*parts, energy_guess=guess).energy
        steps, lengths = shooter_steps(*parts, energy)
        paths = _trajectory(steps, 2, y_wall)
        assert np.all(np.isfinite(paths))
        for s, k in enumerate(lengths):
            reference = reference_node_pass(steps[:, :, s, :k], 2, y_wall)
            got = paths[s, : k // 2 + 1]
            reference, got = unit_aligned(reference, got)
            assert np.max(np.abs(got - reference)) <= 1e-15


def test_prefix_scan_carries_a_state_far_below_its_prefix_scale():
    # diag(2**550, 2**20) twice: the prefix reaches 2**1100, past the double
    # range, while the state (0, 2**40) it carries is 2**-1060 of it, near
    # the subnormal floor.  Scaling by a factor 2**1101 would give inf; the
    # scan must return the exact states.  A third node diag(1, 2**500) lifts
    # the state past 2**498, so the segment is rescaled by a power of two.
    node = np.diag([2.0 ** 550, 2.0 ** 20]).astype(complex)
    lift = np.diag([1.0, 2.0 ** 500]).astype(complex)
    y_wall = np.array([0.0, 1.0], dtype=complex)
    stack = np.stack([node, node, lift], axis=-1)[:, :, None]
    path = _trajectory(stack[..., :2], 1, y_wall)[0]
    assert path.tolist() == [[0, 1], [0, 2.0 ** 20], [0, 2.0 ** 40]]
    path = _trajectory(stack, 1, y_wall)[0]
    assert np.all(np.isfinite(path))
    reference = reference_node_pass(stack[:, :, 0], 1, y_wall)
    assert path[:, 0].tolist() == [0] * 4
    assert np.array_equal(path / np.linalg.norm(path),
                          reference / np.linalg.norm(reference))


def test_identity_padding_leaves_the_ordered_product_unchanged():
    # the right segment is the shorter one on an even grid.  At n = 800 its
    # 798 substeps and the padded 800 both take 10 tree levels, so its
    # midpoint column is bit for bit the unpadded one.  At n = 514 the padding
    # takes 512 substeps to 514 and adds a level; the levels rescale by exact
    # powers of two, so the column is the unpadded one times a power of two
    profile = MassProfile("quadratic_even", m0=1.0, alpha=0.1)
    for n, energy, exact in ((800, 1.63, True), (514, 1.7, False)):
        g = Grid1D(-10.0, 10.0, n)
        pot = LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g))
        steps, (k_left, k_right) = shooter_steps(g, pot, sample_mass(profile, g), energy)
        assert (steps.shape[-1], k_right) == (k_left, k_left - 2)
        assert np.array_equal(steps[:, :, 1, k_right:],
                              np.broadcast_to(_EYE, (2, 2, 2)))
        padded = _ordered_product(steps)[:, 1, 1]
        unpadded = _ordered_product(steps[:, :, 1:, :k_right])[:, 1, 0]
        power = (np.frexp(np.abs(padded).max())[1]
                 - np.frexp(np.abs(unpadded).max())[1])
        assert (power == 0) == exact
        assert np.array_equal(padded, unpadded * 2.0 ** power)


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
    gp = Grid1D(0.0, 8.0, 64, boundary="periodic")
    massp = sample_mass(MassProfile("constant", m0=1.0), gp)
    with pytest.raises(GridError, match="dirichlet"):
        shooting_solve(gp, LorentzPotential.from_channels(gp), massp, 1.0)
    # each unusable input is refused before any integration, by name
    for kwargs, name in (
            ({"energy_guess": float("nan")}, "energy_guess"),
            ({"energy_guess": complex(1.0, float("inf"))}, "energy_guess"),
            ({"energy_guess": 1.1, "substeps": 0}, "substeps"),
            ({"energy_guess": 1.1, "substeps": 2.0}, "substeps"),
            ({"energy_guess": 1.1, "search_radius": float("nan")}, "search_radius"),
            ({"energy_guess": 1.1, "search_radius": float("inf")}, "search_radius"),
            ({"energy_guess": 1.1, "search_radius": -0.5}, "search_radius"),
            ({"energy_guess": 1.1, "search_radius": 0.0}, "search_radius"),
            ({"energy_guess": 1.1, "substeps": True}, "substeps"),
            ({"energy_guess": 1.1, "search_radius": True}, "search_radius"),
            ({"energy_guess": "1.2"}, "energy_guess")):
        with pytest.raises(GridError, match=name):
            shooting_solve(g, pot, mass, **kwargs)
    # a potential or a mass sampled on another grid of the same size is
    # refused, as the operator refuses it (it gave 1.17153 and 1.26950 for
    # the level at 1.21632)
    g = Grid1D(-6.0, 6.0, 121)
    other = Grid1D(-8.0, 8.0, 121)
    profile = MassProfile("quadratic_even", m0=1.0, alpha=0.1)
    pot = LorentzPotential.from_channels(g, v_t=pt_vector_potential(profile, g))
    mass = sample_mass(profile, g)
    assert abs(shooting_solve(g, pot, mass, 1.2).energy - 1.21632) <= 1e-5
    for parts in ((other, pot, mass), (g, pot, sample_mass(profile, other))):
        with pytest.raises(GridError, match="operator grid"):
            shooting_solve(*parts, 1.2)
    # finite samples whose local block M + V_s overflows
    g = Grid1D(-5.0, 5.0, 40)
    mass = sample_mass(MassProfile("constant", m0=1e308), g)
    pot = LorentzPotential.from_channels(g, v_s=GridFunction.constant(g, 1e308))
    with pytest.raises(GridError, match="not finite at node 0"):
        shooting_solve(g, pot, mass, 1.0)


def test_solve_spectrum_input_validation():
    # a NaN tol would pass every pair and a NaN or negative reality_tol tag
    # every real level complex_unpaired; each is refused by name
    op = pt_operator(40)
    for kwargs, name in (
            ({"max_pairs": 0}, "max_pairs"),
            ({"max_pairs": True}, "max_pairs"),
            ({"max_pairs": 2.5}, "max_pairs"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": float("inf")}, "tol"),
            ({"tol": 0.0}, "tol"),
            ({"tol": -1e-9}, "tol"),
            ({"reality_tol": float("nan")}, "reality_tol"),
            ({"reality_tol": float("inf")}, "reality_tol"),
            ({"reality_tol": -1.0}, "reality_tol")):
        with pytest.raises(GridError, match=rf"^{name} must be"):
            solve_spectrum(op, **kwargs)
    # reality_tol = 0 is usable: only an exactly real level is tagged real
    assert len(solve_spectrum(op, reality_tol=0.0).energies) == 12


def test_shooting_builds_energy_independent_work_once_per_operator(monkeypatch):
    # one spline, one spline call and one quartic per operator and substeps
    # (the memo starts empty, see conftest), however many solves and trial
    # energies; one Horner evaluation and one tree product serve both
    # segments and the root search's start points, one more each serves
    # each step, and the spinor reuses the last step's matrices
    import scipy.interpolate
    g, pot, mass = box_parts()
    splines, calls, polys, evaluated, products = [], [], [], [], []

    def counted_spline(*args, **kwargs):
        splines.append(1)
        spline = CubicSpline(*args, **kwargs)

        def evaluate(x):
            calls.append(x.shape)
            return spline(x)
        return evaluate

    def counted_poly(*args):
        polys.append(1)
        return _step_polynomial(*args)

    def counted_evaluate(poly, energies):
        evaluated.append(len(energies))
        return _evaluate_steps(poly, energies)

    def counted_product(steps):
        products.append(steps.shape)
        return _ordered_product(steps)

    monkeypatch.setattr(scipy.interpolate, "CubicSpline", counted_spline)
    monkeypatch.setattr(solver, "_step_polynomial", counted_poly)
    monkeypatch.setattr(solver, "_evaluate_steps", counted_evaluate)
    monkeypatch.setattr(solver, "_ordered_product", counted_product)
    other_mass = sample_mass(MassProfile("constant", m0=1.1), g)
    iterations, trees = set(), 0
    # the last three solves change substeps, then the mass, then go back to
    # the first operator: each is a new build, since only the last is kept
    for guess, substeps, m, builds in (
            (1.1, 2, mass, 1), (1.05 + 0.02j, 2, mass, 1), (1.27, 2, mass, 1),
            (1.1, 3, mass, 2), (1.1, 2, other_mass, 3), (1.1, 2, mass, 4)):
        out = shooting_solve(g, pot, m, energy_guess=guess, substeps=substeps)
        iterations.add(out.iterations)
        trees += 1 + out.iterations
        assert (len(splines), len(calls), len(polys)) == (builds, builds, builds)
        assert len(products) == len(evaluated) == trees
        # the root search starts from two points for a real guess (secant)
        # and three for a complex one (Muller)
        starts = 2 if guess.imag == 0 else 3
        assert evaluated[-1 - out.iterations:] == [starts] + [1] * out.iterations
    assert len(iterations) > 1
    # both segments of the n = 201 box, 100 intervals of 2 or 3 substeps, at
    # 1, 2 or 3 energies
    assert {(shape[:2], shape[3]) for shape in products} == {((2, 2), 2)}
    assert {(shape[2], shape[4]) for shape in products} == {
        (1, 200), (2, 200), (3, 200), (1, 300), (2, 300)}
    # three stages of each of those 400 or 600 substeps
    assert calls == [(1200,), (1800,), (1200,), (1200,)]


def shot_bits(out):
    """A shooting result's fields, each float as its bit pattern."""
    floats = np.array([out.energy, out.determinant, out.match_mismatch])
    return floats.view(np.uint64).tolist(), out.iterations, out.state.tobytes()


def test_a_memoized_build_gives_the_cold_result_bit_for_bit():
    # the shoot_levels operator (alpha = 0.1, n = 800) and the alpha = 1
    # overflow case: a solve on the kept build returns exactly what a solve
    # that builds returns, also after another operator's solve in between,
    # and after a solve that raised
    op = pt_operator(800)
    levels = (op.grid, op.potential, op.mass)
    overflow = pt_overflow_parts()
    cases = ((levels, 1.2187), (levels, -1.2187), (levels, 2.4785), (overflow, 1.6))
    cold = []
    for parts, guess in cases:
        solver._last_build = (None, ())
        cold.append(shot_bits(shooting_solve(*parts, guess)))
        assert shot_bits(shooting_solve(*parts, guess)) == cold[-1]
    # A, B, A
    for (parts, guess), expected in zip(cases[2:] + cases[:1], cold[2:] + cold[:1]):
        assert shot_bits(shooting_solve(*parts, guess)) == expected
    g, pot, mass = box_parts()
    solver._last_build = (None, ())
    expected = shot_bits(shooting_solve(g, pot, mass, 1.1))
    with pytest.raises(ConvergenceError, match="radius"):
        shooting_solve(g, pot, mass, energy_guess=1.0, search_radius=0.05)
    assert shot_bits(shooting_solve(g, pot, mass, 1.1)) == expected
    # a longer box of as many nodes has the same blocks bit for bit, but not
    # the same nodes, so each box is a build of its own
    longer = box_parts(length=10.0)
    assert np.array_equal(local_blocks(*longer[1:]).view(np.uint64),
                          local_blocks(pot, mass).view(np.uint64))
    e1 = np.sqrt(1.0 + (np.pi / 10.0) ** 2)
    assert shooting_solve(*longer, 1.1).energy.real == pytest.approx(e1, abs=1e-6)
    assert shot_bits(shooting_solve(g, pot, mass, 1.1)) == expected


def shoot_level_cases():
    """The shoot_levels operator's three levels (alpha = 0.1, n = 800) and
    the alpha = 1 overflow case from a real and a complex guess."""
    op = pt_operator(800)
    levels = (op.grid, op.potential, op.mass)
    overflow = pt_overflow_parts()
    return ((levels, 1.2187), (levels, -1.2187), (levels, 2.4785),
            (overflow, 1.6), (overflow, 1.6 + 0.05j))


def test_results_do_not_depend_on_the_rescaling_cadence(monkeypatch):
    # the tree product and the prefix scan rescale by exact powers of two,
    # so rescaling every level, every second one or every 8th gives the same
    # energy, determinant, iteration count and state, bit for bit
    cases = shoot_level_cases()
    expected = [shot_bits(shooting_solve(*parts, guess)) for parts, guess in cases]
    assert solver._RESCALE_EVERY == 8
    for cadence in (1, 2, 8):
        monkeypatch.setattr(solver, "_RESCALE_EVERY", cadence)
        assert [shot_bits(shooting_solve(*parts, guess))
                for parts, guess in cases] == expected


def test_batched_start_determinants_equal_single_energy_ones():
    # the root search's start points go through one evaluation and one
    # tree; each energy's steps and determinant are bit for bit those of a
    # batch of one
    for (g, pot, mass), guess in shoot_level_cases()[2:]:
        poly = _step_quartics(g.nodes, local_blocks(pot, mass), 2)
        energies = np.array([guess - 1e-4, guess + 1e-4j, guess])
        steps, dets = _matching_determinants(poly, energies)
        assert steps.shape == (2, 2, 3, 2, g.n_points // 2 * 2)
        for i in range(3):
            one_steps, one = _matching_determinants(poly, energies[i:i + 1])
            for got, batched in ((one_steps, steps[:, :, i:i + 1]), (one, dets[i:i + 1])):
                assert np.array_equal(got.view(np.uint64), batched.view(np.uint64))


def test_memoized_step_quartics_are_read_only():
    g, pot, mass = box_parts()
    blocks = local_blocks(pot, mass)
    poly = _step_quartics(g.nodes, blocks, 2)
    assert _step_quartics(g.nodes, blocks.copy(), 2) is poly
    assert len(poly) == 5
    for c in poly:
        assert c.shape == (2, 2, 2, 200) and not c.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c[...] = 0.0
    # keyed on bits: -0.0 in place of 0.0 is another build
    signed = blocks.copy()
    signed[0, 0, 0] = -0.0
    assert blocks[0, 0, 0] == 0.0 and _step_quartics(g.nodes, signed, 2) is not poly
