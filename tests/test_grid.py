"""Grid construction, finite differences and quadrature."""

import numpy as np
import pytest

from dirac1d import Grid1D, GridError, GridFunction
from dirac1d.grid import central_difference


def test_periodic_spacing_excludes_right_endpoint():
    g = Grid1D(0.0, 2.0 * np.pi, 9, boundary="periodic")
    assert g.h == 2.0 * np.pi / 9.0
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(2.0 * np.pi - g.h)


def test_dirichlet_nodes_hit_both_walls():
    g = Grid1D(0.0, 1.0, 11)
    assert g.h == pytest.approx(0.1)
    assert g.nodes[10] == pytest.approx(1.0)
    assert len(g.nodes) == 11


def test_inverted_domain_rejected():
    with pytest.raises(GridError, match="x_min < x_max"):
        Grid1D(1.0, -1.0, 32)


def test_too_few_points_rejected():
    with pytest.raises(GridError, match="at least 8"):
        Grid1D(0.0, 1.0, 4)


def test_unknown_boundary_rejected():
    with pytest.raises(GridError, match="boundary"):
        Grid1D(0.0, 1.0, 16, boundary="neumann")


def test_fields_are_coerced_and_checked_by_name():
    g = Grid1D(-1, 1, np.int64(12))
    assert g == Grid1D(-1.0, 1.0, 12)
    assert (type(g.x_min), type(g.x_max), type(g.n_points)) == (float, float, int)
    assert np.array_equal(g.nodes, -1.0 + (2.0 / 11.0) * np.arange(12))
    for args, name in (((-1.0, 1.0, 12.7), "n_points"),
                       ((-1.0, 1.0, True), "n_points"),
                       ((-1.0, 1.0, "9"), "n_points"),
                       ((-np.inf, 1.0, 12), "x_min"),
                       ((-1.0, np.nan, 12), "x_max"),
                       ((False, 1.0, 12), "x_min"),
                       ((-1.0, "1", 12), "x_max"),
                       ((-1e308, 1e308, 10), "x_min and x_max"),
                       ((-1e-320, 1e-320, 10), "x_min and x_max"),
                       ((0.0, 5e-324, 10), "x_min and x_max")):
        with pytest.raises(GridError, match=rf"^{name} must be"):
            Grid1D(*args)


def test_nodes_are_read_only():
    g = Grid1D(-1.0, 1.0, 16)
    with pytest.raises(ValueError):
        g.nodes[0] = 7.0


def test_quadrature_weights():
    gp = Grid1D(-1.0, 1.0, 10, boundary="periodic")
    assert np.all(gp.quadrature_weights == gp.h)
    gd = Grid1D(-1.0, 1.0, 10)
    w = gd.quadrature_weights
    assert w[0] == pytest.approx(0.5 * gd.h)
    assert w[-1] == pytest.approx(0.5 * gd.h)
    assert np.all(w[1:-1] == gd.h)


def test_is_symmetric():
    assert Grid1D(-5.0, 5.0, 16).is_symmetric()
    assert not Grid1D(0.0, 1.0, 16).is_symmetric()
    assert Grid1D(-np.pi, np.pi, 16, boundary="periodic").is_symmetric()


def test_grid_function_validates_shape_and_finiteness():
    g = Grid1D(0.0, 1.0, 8)
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
    # a stack of functions keeps the grid's nodes on its last axis
    stack = GridFunction(g, np.ones((3, 2, 8)))
    assert stack.values.shape == (3, 2, 8) and not stack.values.flags.writeable
    for shape in ((8, 3), (), (3, 9)):
        with pytest.raises(GridError, match="shape"):
            GridFunction(g, np.zeros(shape))


def test_central_derivative_second_order_on_sine():
    errs = {}
    for n in (256, 512):
        g = Grid1D(-np.pi, np.pi, n, boundary="periodic")
        df = central_difference(np.sin(g.nodes), g)
        errs[n] = np.max(np.abs(df - np.cos(g.nodes)))
    assert errs[256] <= 1e-3
    # halving h divides the error by 4 for a second-order stencil
    assert errs[256] / errs[512] == pytest.approx(4.0, abs=0.2)


def test_dirichlet_endpoint_stencils_exact_on_quadratics():
    g = Grid1D(-1.0, 3.0, 41)
    df = central_difference(0.5 * g.nodes ** 2 - g.nodes, g)
    assert np.max(np.abs(df - (g.nodes - 1.0))) <= 1e-12


def test_differentiate_is_linear():
    rng = np.random.default_rng(7)
    for boundary in ("dirichlet", "periodic"):
        g = Grid1D(-1.0, 1.0, 40, boundary=boundary)
        f = rng.normal(size=40) + 1j * rng.normal(size=40)
        gfun = rng.normal(size=40) + 1j * rng.normal(size=40)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = central_difference(a * f + b * gfun, g)
        rhs = a * central_difference(f, g) + b * central_difference(gfun, g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_central_difference_of_a_stack_is_that_of_each_row():
    rng = np.random.default_rng(11)
    for boundary in ("dirichlet", "periodic"):
        g = Grid1D(-1.0, 1.0, 40, boundary=boundary)
        stack = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        rows = [central_difference(row, g) for row in stack]
        assert np.array_equal(central_difference(stack, g), np.array(rows))


def test_nearest_node():
    g = Grid1D(-1.0, 1.0, 21)  # h = 0.1
    assert [g.nearest_node(x) for x in (-5.0, -1.0, -0.04, 0.26, 1.0, 3.0)] == [
        0, 0, 10, 13, 20, 20]
    # h = 1 exactly: 4.5 is as near node 4 as node 5, and the lower one wins
    assert Grid1D(0.0, 8.0, 9).nearest_node(4.5) == 4


def test_integrate_constant_is_exact():
    for boundary in ("dirichlet", "periodic"):
        g = Grid1D(0.0, 1.0, 17, boundary=boundary)
        assert np.sum(g.quadrature_weights) == pytest.approx(1.0)


def test_integrate_sine_over_period_vanishes():
    g = Grid1D(-np.pi, np.pi, 64, boundary="periodic")
    val = np.sum(g.quadrature_weights * np.sin(g.nodes))
    assert abs(val) <= 1e-14


def test_integrate_gaussian():
    # tails at |x|=8 are ~1e-28, so the quadrature error is pure rounding
    g = Grid1D(-8.0, 8.0, 512)
    val = np.sum(g.quadrature_weights * np.exp(-g.nodes ** 2))
    assert abs(val - np.sqrt(np.pi)) <= 1e-8


def test_summation_by_parts_periodic():
    # central difference is antisymmetric under the rectangle-rule pairing
    rng = np.random.default_rng(11)
    g = Grid1D(0.0, 3.0, 48, boundary="periodic")
    f = rng.normal(size=48) + 1j * rng.normal(size=48)
    h = rng.normal(size=48) + 1j * rng.normal(size=48)
    w = g.quadrature_weights
    df = central_difference(f, g)
    dh = central_difference(h, g)
    assert abs(np.sum(w * f * dh) + np.sum(w * df * h)) <= 1e-12
