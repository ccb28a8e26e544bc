"""Grid construction, finite differences and quadrature."""

import numpy as np
import pytest

from dirac1d import GridError, GridFunction, build_grid, differentiate, integrate


def test_periodic_spacing_excludes_right_endpoint():
    g = build_grid(0.0, 2.0 * np.pi, 9, boundary="periodic")
    assert g.h == 2.0 * np.pi / 9.0
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(2.0 * np.pi - g.h)


def test_dirichlet_nodes_hit_both_walls():
    g = build_grid(0.0, 1.0, 11)
    assert g.h == pytest.approx(0.1)
    assert g.nodes[10] == pytest.approx(1.0)
    assert len(g.nodes) == 11


def test_inverted_domain_rejected():
    with pytest.raises(GridError, match="x_min < x_max"):
        build_grid(1.0, -1.0, 32)


def test_too_few_points_rejected():
    with pytest.raises(GridError, match="at least 8"):
        build_grid(0.0, 1.0, 4)


def test_unknown_boundary_rejected():
    with pytest.raises(GridError, match="boundary"):
        build_grid(0.0, 1.0, 16, boundary="neumann")


def test_nodes_are_read_only():
    g = build_grid(-1.0, 1.0, 16)
    with pytest.raises(ValueError):
        g.nodes[0] = 7.0


def test_quadrature_weights():
    gp = build_grid(-1.0, 1.0, 10, boundary="periodic")
    assert np.all(gp.quadrature_weights == gp.h)
    gd = build_grid(-1.0, 1.0, 10)
    w = gd.quadrature_weights
    assert w[0] == pytest.approx(0.5 * gd.h)
    assert w[-1] == pytest.approx(0.5 * gd.h)
    assert np.all(w[1:-1] == gd.h)


def test_is_symmetric():
    assert build_grid(-5.0, 5.0, 16).is_symmetric()
    assert not build_grid(0.0, 1.0, 16).is_symmetric()
    assert build_grid(-np.pi, np.pi, 16, boundary="periodic").is_symmetric()


def test_grid_function_validates_shape_and_finiteness():
    g = build_grid(0.0, 1.0, 8)
    with pytest.raises(GridError, match="shape"):
        GridFunction(g, np.zeros(9))
    bad = np.zeros(8)
    bad[3] = np.inf
    with pytest.raises(GridError, match="finite"):
        GridFunction(g, bad)
    f = GridFunction.constant(g, 2.0 + 1.0j)
    assert f.values.dtype == complex
    assert np.all(f.values == 2.0 + 1.0j)
    with pytest.raises(ValueError):
        f.values[0] = 0.0


def test_from_callable_samples_on_nodes():
    g = build_grid(-2.0, 2.0, 33)
    f = GridFunction.from_callable(g, lambda x: x ** 2)
    assert np.allclose(f.values, g.nodes ** 2)


def test_central_derivative_second_order_on_sine():
    errs = {}
    for n in (256, 512):
        g = build_grid(-np.pi, np.pi, n, boundary="periodic")
        f = GridFunction.from_callable(g, np.sin)
        df = differentiate(f)
        errs[n] = np.max(np.abs(df.values - np.cos(g.nodes)))
    assert errs[256] <= 1e-3
    # halving h divides the error by 4 for a second-order stencil
    assert errs[256] / errs[512] == pytest.approx(4.0, abs=0.2)


def test_dirichlet_endpoint_stencils_exact_on_quadratics():
    g = build_grid(-1.0, 3.0, 41)
    f = GridFunction.from_callable(g, lambda x: 0.5 * x ** 2 - x)
    df = differentiate(f)
    assert np.max(np.abs(df.values - (g.nodes - 1.0))) <= 1e-12


def test_differentiate_is_linear():
    rng = np.random.default_rng(7)
    for boundary in ("dirichlet", "periodic"):
        g = build_grid(-1.0, 1.0, 40, boundary=boundary)
        f = GridFunction(g, rng.normal(size=40) + 1j * rng.normal(size=40))
        gfun = GridFunction(g, rng.normal(size=40) + 1j * rng.normal(size=40))
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = differentiate(GridFunction(g, a * f.values + b * gfun.values))
        rhs = a * differentiate(f).values + b * differentiate(gfun).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12


def test_integrate_constant_is_exact():
    for boundary in ("dirichlet", "periodic"):
        g = build_grid(0.0, 1.0, 17, boundary=boundary)
        assert integrate(GridFunction.constant(g, 1.0)) == pytest.approx(1.0)


def test_integrate_sine_over_period_vanishes():
    g = build_grid(-np.pi, np.pi, 64, boundary="periodic")
    val = integrate(GridFunction.from_callable(g, np.sin))
    assert abs(val) <= 1e-14


def test_integrate_gaussian():
    # tails at |x|=8 are ~1e-28, so the quadrature error is pure rounding
    g = build_grid(-8.0, 8.0, 512)
    val = integrate(GridFunction.from_callable(g, lambda x: np.exp(-x * x)))
    assert abs(val - np.sqrt(np.pi)) <= 1e-8


def test_summation_by_parts_periodic():
    # central difference is antisymmetric under the rectangle-rule pairing
    rng = np.random.default_rng(11)
    g = build_grid(0.0, 3.0, 48, boundary="periodic")
    f = rng.normal(size=48) + 1j * rng.normal(size=48)
    h = rng.normal(size=48) + 1j * rng.normal(size=48)
    w = g.quadrature_weights
    df = differentiate(GridFunction(g, f)).values
    dh = differentiate(GridFunction(g, h)).values
    assert abs(np.sum(w * f * dh) + np.sum(w * df * h)) <= 1e-12
