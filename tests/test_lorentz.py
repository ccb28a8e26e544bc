"""Mass families, the induced vector potential, PT checks, the gamma matrices."""

import numpy as np
import pytest

from dirac1d import (GAMMA0, GAMMA1, GAMMA5, Grid1D, GridError, GridFunction,
                     LorentzPotential, MassError, MassProfile,
                     check_pt_symmetry, gamma0_hermiticity_residual,
                     local_blocks, pt_vector_potential, sample_mass)


# ---------------------------------------------------------------- mass

def test_mass_family_values():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(MassProfile("constant", m0=1.5).mass(x), 1.5)
    assert np.allclose(MassProfile("linear", m0=2.0, lam=1.0).mass(x),
                       [1.0, 2.0, 4.0])
    assert np.allclose(
        MassProfile("quadratic_even", m0=1.0, alpha=0.5).mass(x),
        [1.5, 1.0, 3.0])
    assert np.allclose(
        MassProfile("double_well", m0=1.0, lam=2.0, a=1.0).mass(x),
        [1.0, 3.0, 19.0])


def test_unknown_family_rejected():
    with pytest.raises(MassError, match="family"):
        MassProfile("cubic")


def test_inverse_linear_pole_guard():
    profile = MassProfile("inverse_linear", m0=1.0, lam=1.0)
    g = Grid1D(-1.0, 1.0, 9)  # node exactly on the pole at x=0
    with pytest.raises(MassError, match="pole"):
        sample_mass(profile, g)
    g2 = Grid1D(2.0, 10.0, 9)  # min |x| = 2 >= h = 1
    m = sample_mass(profile, g2)
    assert np.allclose(m.values, 1.0 + 1.0 / g2.nodes)


def test_positive_families_must_stay_positive():
    g = Grid1D(-2.0, 2.0, 17)
    with pytest.raises(MassError, match="positive"):
        sample_mass(MassProfile("quadratic_even", m0=-1.0, alpha=0.1), g)
    with pytest.raises(MassError, match="positive"):
        sample_mass(MassProfile("double_well", m0=0.1, lam=-1.0, a=1.0), g)
    with pytest.raises(MassError, match="vanishes"):
        sample_mass(MassProfile("linear", m0=1.0, lam=1.0), g)  # zero at x=-1


# ------------------------------------------------- induced vector potential

def test_induced_potential_closed_forms():
    # A = (i/2) M'/M
    g = Grid1D(-1.0, 1.0, 9)  # h = 0.25, node at 0
    a_lin = pt_vector_potential(MassProfile("linear", m0=2.0, lam=1.0), g)
    assert a_lin.values[4] == pytest.approx(0.25j)

    g5 = Grid1D(-5.0, 5.0, 11)  # integer nodes
    a_quad = pt_vector_potential(MassProfile("quadratic_even", m0=1.0, alpha=1.0), g5)
    x = g5.nodes
    assert np.allclose(a_quad.values, 1.0j * x / (1.0 + x * x))
    assert a_quad.values[6] == pytest.approx(0.5j)  # x = 1

    a_const = pt_vector_potential(MassProfile("constant", m0=3.0), g5)
    assert np.all(a_const.values == 0.0)

    g_pos = Grid1D(1.0, 5.0, 9)  # min x = 1 >= h = 0.5, clear of the pole
    x = g_pos.nodes
    a_inv = pt_vector_potential(MassProfile("inverse_linear", m0=2.0, lam=1.5), g_pos)
    assert np.allclose(a_inv.values, 0.5j * (-1.5 / x**2) / (2.0 + 1.5 / x),
                       rtol=1e-15, atol=0.0)


def test_induced_potential_purely_imaginary():
    g = Grid1D(-4.0, 4.0, 33)
    profiles = [MassProfile("quadratic_even", m0=2.0, alpha=0.3),
                MassProfile("double_well", m0=1.0, lam=0.5, a=1.5),
                MassProfile("linear", m0=9.0, lam=1.0)]
    for p in profiles:
        a = pt_vector_potential(p, g)
        assert np.all(a.values.real == 0.0)


# ---------------------------------------------------------------- PT check

def test_pt_symmetry_of_even_mass_potential():
    g = Grid1D(-6.0, 6.0, 101)
    a = pt_vector_potential(MassProfile("quadratic_even", m0=1.0, alpha=0.4), g)
    assert check_pt_symmetry(a) <= 1e-14


def test_pt_symmetry_broken_by_odd_mass_part():
    g = Grid1D(-1.0, 1.0, 41)
    a = pt_vector_potential(MassProfile("linear", m0=1.0, lam=0.5), g)
    assert check_pt_symmetry(a) > 0.1


def test_pt_symmetry_periodic_mirror_and_real_channel():
    g = Grid1D(-3.0, 3.0, 24, boundary="periodic")
    f = GridFunction(g, np.cos(g.nodes))
    assert check_pt_symmetry(f) <= 1e-15
    const = GridFunction.constant(g, 2.5)
    assert check_pt_symmetry(const) == 0.0


def test_pt_check_needs_symmetric_grid():
    g = Grid1D(0.0, 2.0, 16)
    with pytest.raises(GridError, match="symmetric"):
        check_pt_symmetry(GridFunction.constant(g, 1.0))


# --------------------------------------------------------- gamma matrices

def test_default_representation():
    eye = np.eye(2)
    # the 1+1D Clifford algebra and a Hermitian gamma0 hold exactly
    assert np.array_equal(GAMMA0 @ GAMMA0, eye)
    assert np.array_equal(GAMMA1 @ GAMMA1, -eye)
    assert np.array_equal(GAMMA0 @ GAMMA1 + GAMMA1 @ GAMMA0, np.zeros((2, 2)))
    assert np.array_equal(GAMMA0, GAMMA0.conj().T)
    assert np.array_equal(GAMMA0, [[0, 1], [1, 0]])
    assert np.array_equal(GAMMA1, [[0, -1], [1, 0]])
    assert np.array_equal(GAMMA5, np.diag([1.0, -1.0]))
    for g in (GAMMA0, GAMMA1, GAMMA5):
        assert g.dtype == complex
        assert not g.flags.writeable


# ------------------------------------------------------- potential channels

def test_potential_matrix_structure():
    g = Grid1D(-2.0, 2.0, 9)
    a = GridFunction.constant(g, 0.7j)
    w = GridFunction.constant(g, 0.3)
    pot_t = LorentzPotential.from_channels(g, v_t=a)
    m = local_blocks(pot_t)[4]
    assert np.allclose(m, [[0.7j, 0.0], [0.0, 0.7j]])
    pot_p = LorentzPotential.from_channels(g, v_p=w)
    m = local_blocks(pot_p)[0]
    assert np.allclose(m, [[0.0, 0.3j], [-0.3j, 0.0]])
    assert np.all(local_blocks(LorentzPotential.from_channels(g)) == 0.0)
    # the mass sits on the off-diagonal, next to V_s
    mass = GridFunction.constant(g, 1.5)
    assert np.allclose(local_blocks(pot_p, mass)[0], [[0.0, 1.5 + 0.3j],
                                                      [1.5 - 0.3j, 0.0]])


def random_channels(seed: int, n: int) -> tuple:
    """A grid on [-1, 1] and four random complex channels on it."""
    rng = np.random.default_rng(seed)
    g = Grid1D(-1.0, 1.0, n)
    chans = {name: GridFunction(g, rng.normal(size=n) + 1j * rng.normal(size=n))
             for name in ("v_t", "v_sp", "v_s", "v_p")}
    return g, chans


def gamma_form(chans: dict, j: int) -> np.ndarray:
    """V = gamma0 V_t + gamma1 V_sp + V_s - i gamma5 V_p at node j."""
    return (GAMMA0 * chans["v_t"].values[j]
            + GAMMA1 * chans["v_sp"].values[j]
            + np.eye(2) * chans["v_s"].values[j]
            - 1j * GAMMA5 * chans["v_p"].values[j])


def test_local_blocks_match_channel_decomposition():
    g, chans = random_channels(3, 12)
    pot = LorentzPotential.from_channels(g, **chans)
    mass = GridFunction(g, 1.0 + g.nodes ** 2)
    for m in (None, mass):
        stack = local_blocks(pot, m)
        assert stack.shape == (12, 2, 2)
        m_values = np.zeros(12) if m is None else m.values
        for j in (0, 5, 11):
            expected = GAMMA0 @ (m_values[j] * np.eye(2) + gamma_form(chans, j))
            assert np.allclose(stack[j], expected, atol=1e-15)


def test_local_blocks_that_overflow_name_their_first_node():
    # every sample is finite, but the block sums are not: no warning, and
    # the anti-Hermitian part, built from the blocks, refuses them alike
    g = Grid1D(-5.0, 5.0, 11)  # integer nodes
    big = np.zeros(11)
    big[[6, 9]] = 1e308
    v = GridFunction(g, big)
    pot = LorentzPotential.from_channels(g, v_t=v, v_sp=v)
    for build in (lambda: local_blocks(pot), lambda: pot.anti_hermitian,
                  lambda: local_blocks(LorentzPotential.from_channels(g, v_s=v), v)):
        with pytest.raises(GridError, match=r"not finite at node 6 \(x = 1\)"):
            build()


def test_anti_hermitian_matches_gamma_form():
    g, chans = random_channels(5, 12)
    pot = LorentzPotential.from_channels(g, **chans)
    for j in range(12):
        v = gamma_form(chans, j)
        expected = v - GAMMA0 @ v.conj().T @ GAMMA0
        assert np.allclose(pot.anti_hermitian[j], expected, atol=1e-15)


def test_channels_must_share_grid():
    g1 = Grid1D(-1.0, 1.0, 9)
    g2 = Grid1D(-1.0, 1.0, 10)
    with pytest.raises(GridError, match="different grid"):
        LorentzPotential.from_channels(g1, v_s=GridFunction.constant(g2, 1.0))


# ------------------------------------------------ gamma0-metric Hermiticity

def test_hermiticity_residual_zero_iff_channels_real():
    rng = np.random.default_rng(19)
    g = Grid1D(-2.0, 2.0, 25)
    real_chans = {name: GridFunction(g, rng.normal(size=25) + 0.0j)
                  for name in ("v_t", "v_sp", "v_s", "v_p")}
    pot = LorentzPotential.from_channels(g, **real_chans)
    assert gamma0_hermiticity_residual(pot) == 0.0
    # an imaginary admixture of size b in any one channel shows up as 2b
    for name in ("v_t", "v_sp", "v_s", "v_p"):
        bumped = dict(real_chans)
        bumped[name] = GridFunction(g, real_chans[name].values + 1e-3j)
        resid = gamma0_hermiticity_residual(LorentzPotential.from_channels(g, **bumped))
        assert resid == pytest.approx(2e-3, rel=1e-9)


def test_anti_hermitian_part_is_cached_and_read_only():
    g = Grid1D(-2.0, 2.0, 25)
    a = GridFunction(g, 0.3j * g.nodes)
    pot = LorentzPotential.from_channels(g, v_t=a, v_s=GridFunction(g, g.nodes))
    anti = pot.anti_hermitian
    assert anti is pot.anti_hermitian
    assert not anti.flags.writeable
    # real v_s drops out; v_t = iA gives V - gamma0 V^dag gamma0 = 2iA gamma0
    np.testing.assert_array_equal(anti, 2.0 * a.values[:, None, None] * GAMMA0)
    assert gamma0_hermiticity_residual(pot) == float(np.max(np.abs(anti)))


def test_hermiticity_residual_equals_twice_peak_potential():
    g = Grid1D(-5.0, 5.0, 101)
    profile = MassProfile("quadratic_even", m0=1.0, alpha=1.0)
    a = pt_vector_potential(profile, g)
    pot = LorentzPotential.from_channels(g, v_t=a)
    # |A| peaks at x = 1/sqrt(alpha) = 1 with value 1/2
    assert gamma0_hermiticity_residual(pot) == pytest.approx(1.0, abs=1e-12)
