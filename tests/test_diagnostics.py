"""Currents, normalization, continuity, Gram matrix and the balance identity."""

from dataclasses import fields, replace

import numpy as np
import pytest

from dirac1d import diagnostics, report, solver
from dirac1d import (BalanceTable, Grid1D, GridError, GridFunction,
                     LorentzPotential, MassProfile, SpectrumResult,
                     assemble_hamiltonian, continuity_residual, gram_matrix,
                     normalize_result, config_from_raw, execute,
                     orthogonality_balance, reduced_residual_norm,
                     sample_mass, solve_spectrum)
from dirac1d.grid import central_difference
from helpers import reference_balance_terms


def stack_result(states, x_min=-2.0, x_max=2.0):
    """A SpectrumResult holding the given (K, n, 2) states on a free operator."""
    states = np.asarray(states, dtype=complex)
    g = Grid1D(x_min, x_max, states.shape[1])
    op = assemble_hamiltonian(g, LorentzPotential.from_channels(g),
                              sample_mass(MassProfile("constant", m0=1.0), g))
    k = len(states)
    return SpectrumResult(operator=op, energies=np.zeros(k), states=states,
                          residuals=np.zeros(k), classification=("real",) * k,
                          solver_tolerance=1e-9)


def test_normalize_charge_and_phase():
    rng = np.random.default_rng(31)
    result = stack_result(rng.normal(size=(1, 50, 2)) + 1j * rng.normal(size=(1, 50, 2)))
    normalized = normalize_result(result)
    ns = normalized.states[0]
    charge = np.sum(result.grid.quadrature_weights * np.sum(np.abs(ns) ** 2, axis=1))
    assert charge == pytest.approx(1.0, abs=1e-12)
    stacked = ns.T.ravel()  # plus component, then minus
    pivot = stacked[np.argmax(np.abs(stacked))]
    assert pivot.imag == pytest.approx(0.0, abs=1e-14)
    assert pivot.real > 0
    again = normalize_result(normalized).states[0]
    assert np.max(np.abs(again - ns)) <= 1e-13


def test_normalize_pivot_is_the_first_near_largest_sample():
    # the minus component holds the largest sample, the plus component one
    # within PIVOT_REL_TOL of it: the plus sample, first in order, is the pivot
    states = np.full((1, 16, 2), 0.1 + 0.0j)
    states[0, 5, 0] = 1j
    states[0, 2, 1] = -(1.0 + 1e-12)
    ns = normalize_result(stack_result(states)).states[0]
    assert ns[5, 0].imag == 0.0 and ns[5, 0].real > 0.0


def test_normalize_phase_does_not_depend_on_the_input_phase(pt_cases):
    # these states are mirror-symmetric up to a phase: each has two peaks
    # whose magnitudes agree to rounding, and a plain argmax pivot let the
    # rounding of e^{i theta} phi choose between them
    result = pt_cases[200].result
    peaks = np.sort(np.abs(result.states).reshape(len(result.states), -1), axis=1)
    assert np.all(peaks[:, -2] >= (1.0 - 1e-10) * peaks[:, -1])
    ref = normalize_result(result).states
    for theta in 0.5 * np.arange(12):
        rotated = normalize_result(replace(result, states=np.exp(1j * theta)
                                           * result.states)).states
        assert np.max(np.abs(rotated - ref)) <= 1e-13


def test_normalize_result_of_the_stack_is_that_of_each_state(pt_cases):
    result = pt_cases[200].result
    stack = normalize_result(result).states
    for k in range(len(result.energies)):
        one = replace(result, energies=result.energies[k:k + 1],
                      states=result.states[k:k + 1], residuals=result.residuals[k:k + 1],
                      classification=result.classification[k:k + 1])
        assert np.array_equal(normalize_result(one).states[0], stack[k])


def test_normalize_rejects_zero_state():
    with pytest.raises(GridError, match="zero-norm"):
        normalize_result(stack_result(np.zeros((1, 16, 2))))


def test_continuity_vanishes_for_exact_rest_state():
    n = 40
    g = Grid1D(-np.pi, np.pi, n, boundary="periodic")
    op = assemble_hamiltonian(g, LorentzPotential.from_channels(g),
                              sample_mass(MassProfile("constant", m0=1.0), g))
    rest = SpectrumResult(operator=op, energies=np.array([1.0]),
                          states=np.ones((1, n, 2)), residuals=np.zeros(1),
                          classification=("real",), solver_tolerance=1e-9)
    r = continuity_residual(rest)
    assert r.shape == (1, n)
    assert np.max(np.abs(r[0])) <= 1e-14


def test_continuity_floors_at_rounding_for_hermitian_states(scalar_cases):
    # real channels conserve the current, and R is the lattice operator's own
    # continuity equation, so it sits at rounding level, not at a stencil
    # error
    result = normalize_result(scalar_cases[200].result)
    for r in continuity_residual(result)[:4]:
        assert np.max(np.abs(r)) <= 1e-12


def test_continuity_detects_genuine_nonconservation(pt_cases):
    result = normalize_result(pt_cases[400].result)
    k = next(k for k, e in enumerate(result.energies) if e.real > 0)
    density = np.abs(result.states[k]) ** 2
    dj1 = central_difference(density[:, 0] - density[:, 1], result.grid)
    r = continuity_residual(result)[k]
    # the current really is not conserved: its divergence dwarfs the
    # identity residual that measures our bookkeeping error
    assert np.max(np.abs(dj1)) > 10.0 * np.max(np.abs(r))
    assert np.max(np.abs(dj1)) > 1e-3


# Hermitian double-well operators with a space-vector channel: the states
# carry |phi_plus| != |phi_minus|, so j1 is no longer the conserved current
DOUBLE_WELL_V_SP = {
    "grid": {"x_min": "-6.0", "x_max": "6.0", "n_points": "200"},
    "mass": {"family": "double_well", "m0": "1.0", "lam": "0.3", "a": "1.5"},
    "potential": {"v_s": "abs:0.5", "v_sp": "constant:0.3"}}


def continuity_check(rep):
    (check,) = [c for c in rep.checks if c.name == "continuity_conserved"]
    return check


@pytest.mark.parametrize("wilson_r", ["0", "1"])
def test_hermitian_space_vector_states_conserve_the_lattice_current(wilson_r):
    raw = {**DOUBLE_WELL_V_SP, "solver": {"wilson_r": wilson_r}}
    rep = execute(config_from_raw(raw), "diagnose")
    assert rep.passed and continuity_check(rep).passed
    h = rep.grid_info["h"]
    assert max(rep.spectrum["continuity_max"]) <= 1e-12 <= 100.0 * h ** 2


def test_continuity_without_the_wilson_flux_fails(monkeypatch):
    # the Wilson term carries part of the conserved current; a residual
    # built from the central-difference flux alone is off by 2.6e-2 here
    edge_current = diagnostics._edge_current
    monkeypatch.setattr(diagnostics, "_edge_current",
                        lambda states, wilson_r: edge_current(states, 0.0))
    rep = execute(config_from_raw(DOUBLE_WELL_V_SP), "diagnose")
    assert not continuity_check(rep).passed
    assert max(rep.spectrum["continuity_max"]) > 1e-3


def test_edge_current_across_a_window_is_the_balance_boundary_term(pt_cases):
    # the continuity residual's flux on the window's outer edges is the
    # k = k' boundary term of the balance identity, on the PT operator and on
    # a periodic one, with windows at the walls and in the interior
    g = Grid1D(-5.0, 5.0, 96, boundary="periodic")
    rng = np.random.default_rng(5)
    periodic = assemble_hamiltonian(
        g, LorentzPotential.from_channels(
            g, v_t=GridFunction(g, 0.3j * g.nodes), v_sp=GridFunction.constant(g, 0.1),
            v_s=GridFunction(g, rng.normal(size=96))),
        sample_mass(MassProfile("constant", m0=1.0), g), wilson_r=0.7)
    for result in (normalize_result(pt_cases[200].result),
                   normalize_result(solve_spectrum(periodic, max_pairs=8))):
        n = result.grid.n_points
        flux = diagnostics._edge_current(result.states, result.operator.wilson_r)
        assert np.max(np.abs(continuity_residual(result))) <= 1e-11
        largest = 0.0
        for lo, hi in ((0, n - 1), (1, n // 2), (n // 3, n - 1), (n // 3, 2 * n // 3)):
            _, boundary, _ = diagnostics._balance_terms(
                result, lo, hi, np.full(hi - lo + 1, result.grid.h))
            want = np.diagonal(boundary)
            got = 1.0j * (flux[:, hi] - flux[:, lo - 1])
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
            largest = max(largest, np.max(np.abs(want)))
        assert largest > 1e-3  # some window sees a real flux


def test_gram_orthonormal_for_real_channels(scalar_cases):
    result = normalize_result(scalar_cases[200].result)
    g = gram_matrix(result)
    assert np.max(np.abs(np.diag(g) - 1.0)) <= 1e-10
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) <= 1e-8


def test_gram_offdiagonal_for_imaginary_vector_channel(pt_cases):
    result = normalize_result(pt_cases[400].result)
    g = gram_matrix(result)
    assert np.max(np.abs(np.diag(g) - 1.0)) <= 1e-10
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) > 1e-4


def test_gram_single_state():
    gr = Grid1D(-np.pi, np.pi, 24, boundary="periodic")
    mass = sample_mass(MassProfile("constant", m0=1.0), gr)
    op = assemble_hamiltonian(gr, LorentzPotential.from_channels(gr), mass)
    result = normalize_result(solve_spectrum(op, max_pairs=1))
    g = gram_matrix(result)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-12)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# one normalized result per eigensolver path: chiral (svd), complex eigh
# (v_t plus v_sp) and PT (eig)
GRAM_CASES = {
    "svd": {"v_s": lambda x: 0.5 * np.abs(x), "v_sp": lambda x: 0.2 + 0 * x},
    "eigh": {"v_t": lambda x: 0.05 * x ** 2, "v_sp": lambda x: 0.2 + 0 * x},
    "eig": {"v_t": lambda x: 0.3j * x, "v_s": lambda x: 0.5 * np.abs(x)},
}


@pytest.mark.parametrize("routine", GRAM_CASES)
def test_gram_is_exactly_hermitian_around_the_overlap_upper_triangle(
        routine, monkeypatch):
    calls = []
    solve = getattr(np.linalg, routine)
    monkeypatch.setattr(np.linalg, routine,
                        lambda m: calls.append(routine) or solve(m))
    result = _channel_solve("dirichlet", 6.0, 100, max_pairs=10,
                            **GRAM_CASES[routine])
    assert calls == [routine]
    g = gram_matrix(result)
    assert np.array_equal(g, g.conj().T)
    diagonal_im = g.diagonal().imag
    assert not diagonal_im.any() and not np.signbit(diagonal_im).any()
    c = result.states
    product = diagnostics._overlap(np.conj(c), c, result.grid.quadrature_weights)
    upper = np.triu_indices(len(g), 1)
    assert np.array_equal(_bits(g[upper]), _bits(product[upper]))
    assert np.array_equal(_bits(g.diagonal().real), _bits(product.diagonal().real))
    # the windowless balance's <k'|k>, k' < k, is the Gram upper triangle
    pairs = np.stack(np.tril_indices(len(g), -1), axis=1)
    table, failures = orthogonality_balance(result, pairs)
    assert failures == [] and len(table) == len(pairs)
    e = result.energies
    want = ((e[None, :] - np.conj(e)[:, None]) * g)[table.k_prime, table.k]
    assert np.array_equal(_bits(table.term_energy), _bits(want))


@pytest.mark.parametrize("routine", GRAM_CASES)
def test_a_windowless_balance_reads_the_product_gram_matrix_formed(
        routine, monkeypatch):
    result = _channel_solve("dirichlet", 6.0, 100, max_pairs=10,
                            **GRAM_CASES[routine])
    n, weights = result.grid.n_points, result.grid.quadrature_weights
    # the terms as _balance_terms forms them without the product
    want = diagnostics._balance_terms(result, 0, n - 1, weights)
    calls = []
    for module in (solver, diagnostics):
        monkeypatch.setattr(module, "_overlap",
                            lambda *args, f=module._overlap, name=module.__name__:
                            calls.append(name) or f(*args))
    gram_matrix(result)
    # default pairs read the upper triangle; k < k' reads the lower one
    upper = np.stack(np.tril_indices(len(result.energies), -1), axis=1)
    for pairs in (upper, [(3, 1), (1, 3), (0, 2), (9, 8), (8, 9)]):
        table, failures = orthogonality_balance(result, pairs)
        assert failures == [] and len(table) == len(pairs)
        for got, terms in zip((table.term_energy, table.term_boundary,
                               table.term_potential), want):
            assert np.array_equal(_bits(got), _bits(terms[table.k_prime, table.k]))
    # the product once, by gram_matrix; each balance forms only its
    # potential term
    assert calls == ["dirac1d.solver"] + ["dirac1d.diagnostics"] * 2


def test_balance_hermitian_limit(scalar_cases):
    result = normalize_result(scalar_cases[200].result)
    table, _ = orthogonality_balance(result, [(1, 0)])
    assert len(table) == 1
    assert table.identity_ok[0]
    assert table.term_boundary[0] == 0.0  # hard walls: no flux through the ends
    assert abs(table.term_potential[0]) <= 1e-12
    assert abs(table.term_energy[0]) <= 1e-10
    assert table.orthogonality_restored[0]


def test_balance_terms_with_imaginary_vector_channel(pt_cases):
    result = normalize_result(pt_cases[400].result)
    table, _ = orthogonality_balance(result, [(1, 0)], identity_tol=1e-6)
    assert len(table) == 1
    # the identity closes at rounding level even though each side is O(1)
    assert table.identity_residual[0] <= 1e-12 * term_scale(table)[0]
    assert abs(table.term_potential[0]) > 1e-2
    assert table.term_boundary[0] == 0.0
    assert not table.orthogonality_restored[0]
    assert table.orthogonality_gap[0] == pytest.approx(
        abs(table.term_boundary[0] - table.term_potential[0]))


def test_balance_windowed_flux(pt_cases):
    result = pt_cases[400].result
    table, _ = orthogonality_balance(result, [(1, 0)], window=(100, 300))
    assert len(table) == 1
    assert table.identity_residual[0] <= 1e-12 * term_scale(table)[0]
    assert abs(table.term_boundary[0]) > 1e-8  # interior window sees real flux
    assert table.window == (100, 300)


def test_balance_rejects_bad_pairs(pt_cases):
    result = pt_cases[400].result
    reports, failures = orthogonality_balance(result, [(2, 2), (1, 0), (0, 99)])
    assert pair_list(reports) == [(1, 0)]
    assert [(k, kp) for k, kp, _ in failures] == [(2, 2), (0, 99)]
    assert "distinct" in failures[0][2]
    assert failures[1][2] == "pair indices (0, 99) out of range 0..11"
    reports, failures = orthogonality_balance(result, [(0, 1)], window=(300, 100))
    assert len(reports) == 0
    assert failures == [(0, 1, "window (300, 100) is not a valid index range")]
    for pairs, window, name in (([(1.0, 0)], None, "integers"),
                                ([1, 0], None, "pairs"),
                                ([(1, 0, 2)], None, "pairs"),
                                ([(1, 0), (2,)], None, "pairs"),
                                ([(1, 0)], (2.7, 150.9), "window"),
                                ([(1, 0)], (2, 150, 151), "window"),
                                ([(1, 0)], 5, "window")):
        with pytest.raises(TypeError, match=name):
            orthogonality_balance(result, pairs, window=window)


def test_balance_accepts_unsigned_pair_indices(pt_cases):
    # a uint32 pair array gives the table and the refusals of the same pairs
    # as ints
    result = pt_cases[400].result
    pairs = [(1, 0), (2, 0), (2, 2), (0, 99)]
    expected, expected_failures = orthogonality_balance(result, pairs)
    table, failures = orthogonality_balance(result, np.array(pairs, dtype=np.uint32))
    assert len(table) == 2 and failures == expected_failures
    for field in fields(BalanceTable):
        got, want = getattr(table, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        else:
            assert got == want


def test_balance_rejects_non_eigenpairs(pt_cases):
    result = pt_cases[400].result
    rng = np.random.default_rng(13)
    states = result.states.copy()
    n = result.grid.n_points
    states[1, :, 0] = rng.normal(size=n)
    states[1, :, 1] = rng.normal(size=n)
    tampered = replace(result, states=states)
    reports, failures = orthogonality_balance(tampered, [(1, 0), (2, 0), (2, 1)])
    assert pair_list(reports) == [(2, 0)]
    assert [(k, kp) for k, kp, _ in failures] == [(1, 0), (2, 1)]
    assert failures[0][2].startswith("state k fails the coupled-equation oracle")
    assert failures[1][2].startswith("state k_prime fails the coupled-equation oracle")


def test_balance_potential_term_oracle():
    # for V_t = i W the anti-Hermitian density reduces to 2 i W phi'^dag phi,
    # so term_potential must equal that quadrature exactly
    g = Grid1D(-5.0, 5.0, 100)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    w_vals = 0.4 * np.exp(-g.nodes ** 2)
    pot = LorentzPotential.from_channels(g, v_t=GridFunction(g, 1.0j * w_vals))
    op = assemble_hamiltonian(g, pot, mass)
    result = solve_spectrum(op)
    table, _ = orthogonality_balance(result, [(1, 0)])
    assert len(table) == 1
    s_k, s_kp = result.states[1], result.states[0]
    overlap = np.conj(s_kp[:, 0]) * s_k[:, 0] + np.conj(s_kp[:, 1]) * s_k[:, 1]
    direct = 2.0j * np.sum(g.quadrature_weights * w_vals * overlap)
    assert table.term_potential[0] == pytest.approx(direct, abs=1e-13)


def _channel_solve(boundary, x_max, n, wilson_r=1.0, max_pairs=12, **channels):
    g = Grid1D(-x_max, x_max, n, boundary=boundary)
    mass = sample_mass(MassProfile("constant", m0=1.0), g)
    pot = LorentzPotential.from_channels(
        g, **{name: GridFunction(g, f(g.nodes)) for name, f in channels.items()})
    op = assemble_hamiltonian(g, pot, mass, wilson_r=wilson_r)
    return normalize_result(solve_spectrum(op, max_pairs=max_pairs))


def _all_pairs(result):
    k_max = len(result.energies)
    return [(k, kp) for k in range(k_max) for kp in range(k_max) if k != kp]


def pair_list(table):
    """The (k, k_prime) pairs of a balance table, in table order."""
    return list(zip(table.k.tolist(), table.k_prime.tolist()))


def term_scale(table):
    """max(1, |term_energy|, |term_boundary|, |term_potential|) per pair."""
    return np.maximum.reduce([np.ones(len(table)), np.abs(table.term_energy),
                              np.abs(table.term_boundary),
                              np.abs(table.term_potential)])


def _assert_columns_follow_the_scalar_rule(table):
    # the per-pair rule in Python complex arithmetic; the columns must carry
    # its bits, which np.abs (not abs(complex)) would change in the last place
    tol = table.identity_tol
    for i in range(len(table)):
        te, tb, tp = (complex(t[i]) for t in (table.term_energy,
                                              table.term_boundary,
                                              table.term_potential))
        residual, gap = abs(te + tb - tp), abs(tb - tp)
        ok = residual <= tol * max(1.0, abs(te), abs(tb), abs(tp))
        assert float(table.identity_residual[i]).hex() == residual.hex(), i
        assert float(table.orthogonality_gap[i]).hex() == gap.hex(), i
        assert table.identity_ok[i] == ok, i
        assert table.orthogonality_restored[i] == (gap <= tol), i


def test_balance_closes_at_rounding_for_complex_levels():
    # E_k' enters the gamma0-adjoint equation conjugated: with the plain
    # E_k - E_k' the worst residual here is 1.46, with the conjugate the
    # identity closes at rounding for the eight complex levels too
    result = _channel_solve("dirichlet", 6.0, 121, max_pairs=10,
                            v_t=lambda x: 0.6j * x, v_s=lambda x: 0.5 * np.abs(x))
    assert sum(t != "real" for t in result.classification) == 8
    reports, failures = orthogonality_balance(result, _all_pairs(result))
    assert failures == [] and len(reports) == 90
    open_pairs = reports.identity_residual > 1e-12 * term_scale(reports)
    assert not open_pairs.any(), np.array(pair_list(reports))[open_pairs]
    _assert_columns_follow_the_scalar_rule(reports)


def test_auto_identity_tol_is_rounding_scaled(pt_cases):
    # the identity holds at the stencil level, so the auto tolerance carries
    # no h^2 term: at n=400, 100 h^2 = 0.25 would call the O(0.06) gap of
    # the broken-orthogonality pair (1, 0) "restored"
    result = normalize_result(pt_cases[400].result)
    reports, failures = orthogonality_balance(result, _all_pairs(result))
    assert failures == []
    assert reports.identity_ok.all()
    assert reports.identity_tol == diagnostics.AUTO_IDENTITY_TOL
    assert diagnostics.AUTO_IDENTITY_TOL < 1e-11
    (i,) = np.flatnonzero((reports.k == 1) & (reports.k_prime == 0))
    assert reports.orthogonality_gap[i] > 1e-2
    assert not reports.orthogonality_restored[i]


def _assert_terms_match_reference(result, table, window=None):
    for i, (k, kp) in enumerate(pair_list(table)):
        got = (table.term_energy[i], table.term_boundary[i], table.term_potential[i])
        want = reference_balance_terms(result, k, kp, window)
        scale = max(1.0, *(abs(t) for t in want))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * scale, (k, kp)


def _assert_matches_reference(result, window=None):
    reports, failures = orthogonality_balance(result, _all_pairs(result),
                                              window=window)
    assert failures == []
    _assert_terms_match_reference(result, reports, window)
    _assert_columns_follow_the_scalar_rule(reports)
    return reports


def test_balance_matrix_form_matches_reference_periodic_window():
    result = _channel_solve("periodic", 4.0, 120,
                            v_t=lambda x: 0.3j * x, v_sp=lambda x: 0.1 + 0 * x,
                            v_s=lambda x: 0.5 * np.abs(x),
                            v_p=lambda x: 0.05 * x ** 2)
    assert np.max(np.abs(result.energies.imag)) > 0.1
    reports = _assert_matches_reference(result, window=(30, 82))
    assert np.abs(reports.term_boundary).max() > 1e-3


def test_balance_matrix_form_matches_reference_hard_walls(pt_cases):
    reports = _assert_matches_reference(normalize_result(pt_cases[400].result))
    assert np.all(reports.term_boundary == 0.0)


def test_balance_matrix_form_matches_reference_central_scheme():
    result = _channel_solve("dirichlet", 6.0, 100, wilson_r=0.0,
                            max_pairs=8, v_s=lambda x: 0.5 * np.abs(x),
                            v_sp=lambda x: 0.2 + 0 * x)
    _assert_matches_reference(result, window=(25, 66))


def test_balance_table_gathers_pairs_in_order(pt_cases):
    result = normalize_result(pt_cases[400].result)
    pairs = [(3, 1), (0, 2), (5, 4), (1, 0)]
    table, _ = orthogonality_balance(result, pairs)
    assert pair_list(table) == pairs
    _assert_terms_match_reference(result, table)
    assert not table.identity_residual.flags.writeable


def test_balance_runs_the_oracle_once_per_state(pt_cases, monkeypatch):
    # one oracle call per balance, on the stacks of every state its valid
    # pairs use, in state order
    result = normalize_result(pt_cases[400].result)
    calls = []

    def counted(energy, plus, minus, *args, **kwargs):
        calls.append((energy, plus.values, minus.values))
        return reduced_residual_norm(energy, plus, minus, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "reduced_residual_norm", counted)
    s = result.states
    for pairs, used, evaluated in ((_all_pairs(result), list(range(12)), 12 * 11),
                                   ([(3, 1), (0, 3), (2, 2), (5, 99)], [0, 1, 3], 2),
                                   ([(2, 2)], [], 0)):
        calls.clear()
        reports, _ = orthogonality_balance(result, pairs)
        assert len(reports) == evaluated and len(calls) == 1
        energy, plus, minus = calls[0]
        assert np.array_equal(energy, result.energies[used])
        assert np.array_equal(plus, s[used, :, 0]) and np.array_equal(minus, s[used, :, 1])


PT_RAW = {"grid": {"x_min": "-6.0", "x_max": "6.0", "n_points": "100"},
          "mass": {"family": "quadratic_even", "m0": "1.0", "alpha": "0.1"},
          "potential": {"v_t": "pt_from_mass"},
          "diagnostics": {"balance_lowest": "4"}}


def test_tampered_state_fails_each_of_its_pairs_in_execute(monkeypatch):
    # one failing state refuses every pair it belongs to, each with its own
    # check in pair order, and the other pairs are still evaluated
    seen = {}

    def tampered(op, **kwargs):
        result = solve_spectrum(op, **kwargs)
        rng = np.random.default_rng(13)
        seen["op"] = op
        states = result.states.copy()
        n = result.grid.n_points
        states[2, :, 0] = rng.normal(size=n)
        states[2, :, 1] = rng.normal(size=n)
        seen["tampered"] = replace(result, states=states)
        return seen["tampered"]

    monkeypatch.setattr(report, "solve_spectrum", tampered)
    run = execute(config_from_raw(PT_RAW), "diagnose")

    op, tampered = seen["op"], seen["tampered"]
    s = normalize_result(tampered).states[2]
    res = reduced_residual_norm(tampered.energies[2], GridFunction(op.grid, s[:, 0]),
                                GridFunction(op.grid, s[:, 1]),
                                op.potential, op.mass, scheme=op.scheme,
                                wilson_r=op.wilson_r)
    why = (f"fails the coupled-equation oracle (residual {res:.3e} > 10 x tol); "
           "balance identity is only defined for eigenpairs")
    balance = [c for c in run.checks if c.name == "balance_identity"]
    assert [(c.passed, c.detail) for c in balance[:-1]] == [
        (False, f"pair (2,0): state k {why}"),
        (False, f"pair (2,1): state k {why}"),
        (False, f"pair (3,2): state k_prime {why}"),
    ]
    assert balance[-1].passed and balance[-1].detail.startswith("3 pair(s)")
