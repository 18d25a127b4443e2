import math

import numpy as np
import pytest
from scipy.integrate import quad

from wickshe.kernels import (apply_heat_semigroup, apply_heat_semigroup_dx,
                             build_line_grid, constant_ic, dxp_cross_inner, graded_panels,
                             heat_kernel, heat_kernel_dx, initial_condition_from_tag,
                             simplex_from_unit, simplex_map, simplex_quadrature, sine_ic,
                             tensor_rule)


class TestHeatKernel:
    def test_values(self):
        assert heat_kernel(1.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5, abs=1e-15)
        assert heat_kernel(0.5, 1.0) == pytest.approx(math.exp(-1) / math.sqrt(math.pi), abs=1e-15)

    def test_mass_and_moment(self, wide_grid):
        for t in (0.1, 0.7, 1.5):
            mass = np.dot(heat_kernel(t, wide_grid.nodes), wide_grid.weights)
            mom = np.dot(wide_grid.nodes * heat_kernel(t, wide_grid.nodes), wide_grid.weights)
            assert mass == pytest.approx(1.0, abs=1e-8)
            assert mom == pytest.approx(0.0, abs=1e-8)

    def test_semigroup_property(self, wide_grid):
        for s in (0.1, 0.5, 1.0):
            for t in (0.1, 0.5, 1.0):
                for xz in (-3.0, 0.0, 1.7):
                    conv = np.dot(heat_kernel(s, xz - wide_grid.nodes) * wide_grid.weights,
                                  heat_kernel(t, wide_grid.nodes))
                    assert abs(conv - heat_kernel(s + t, xz)) <= 1e-6

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            heat_kernel_dx(-1.0, 1.0)


class TestHeatKernelDx:
    def test_odd_at_origin(self):
        assert heat_kernel_dx(0.7, 0.0) == 0.0

    def test_value(self):
        ref = -math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert heat_kernel_dx(1.0, 1.0) == pytest.approx(ref, abs=1e-15)

    def test_matches_finite_difference(self):
        for t in (0.3, 1.0):
            for x in (-1.1, 0.2, 2.0):
                fd = (heat_kernel(t, x + 1e-6) - heat_kernel(t, x - 1e-6)) / 2e-6
                assert heat_kernel_dx(t, x) == pytest.approx(fd, abs=1e-6)


class TestCrossInner:
    def test_equal_point_value(self):
        assert dxp_cross_inner(0.5, 0.5, 1.3, 1.3) == pytest.approx(
            (2 * math.pi) ** -0.5, abs=1e-15)

    def test_quadrature_oracle(self):
        for (t1, t2, x1, x2) in [(1.0, 2.0, 0.0, 0.7), (0.3, 0.9, -1.0, 0.4)]:
            num = quad(lambda z: heat_kernel_dx(t1, x1 - z) * heat_kernel_dx(t2, x2 - z),
                       -30, 30, limit=400)[0]
            assert dxp_cross_inner(t1, t2, x1, x2) == pytest.approx(num, abs=1e-6)

    def test_symmetry(self):
        assert dxp_cross_inner(0.4, 1.1, 0.2, -0.7) == dxp_cross_inner(1.1, 0.4, -0.7, 0.2)

    def test_increment_bound_probe(self):
        # x-increment combination obeys C h^{2 gamma} (2 tau)^{-3/2-gamma}
        gamma, C = 0.4, 4.0
        for tau in (0.05, 0.2, 0.8):
            for h in (0.05, 0.1, 0.4):
                comb = 2 * (dxp_cross_inner(tau, tau, 0.0, 0.0)
                            - dxp_cross_inner(tau, tau, 0.0, h))
                assert comb <= C * h ** (2 * gamma) * (2 * tau) ** (-1.5 - gamma)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            dxp_cross_inner(0.0, 1.0, 0.0, 0.0)


class TestSemigroupApplication:
    def test_constant_mass(self, wide_grid):
        assert apply_heat_semigroup(constant_ic(), 1.0, 0.3, wide_grid) == pytest.approx(
            1.0, abs=1e-8)

    def test_sine_eigenfunction(self, wide_grid):
        # sin is an eigenfunction with eigenvalue e^{-t/2}
        val = apply_heat_semigroup(sine_ic(), 1.0, math.pi / 2, wide_grid)
        assert val == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_sine_derivative(self, wide_grid):
        val = apply_heat_semigroup_dx(sine_ic(), 1.0, 0.0, wide_grid)
        assert val == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_coverage_guard(self):
        small = build_line_grid(2.0, panels=8)
        with pytest.raises(ValueError, match="half-width"):
            apply_heat_semigroup(constant_ic(), 1.0, 1.5, small)


class TestInitialConditions:
    @pytest.mark.parametrize("tag", ["constant", "sine", "gaussian_bump", "tanh"])
    def test_derivative_consistency(self, tag):
        ic = initial_condition_from_tag(tag)
        xs = np.linspace(-2.5, 2.5, 11)
        fd = (ic(xs + 1e-6) - ic(xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(ic.derivative(xs), fd, atol=1e-6)

    @pytest.mark.parametrize("tag", ["constant", "sine", "gaussian_bump", "tanh"])
    def test_sup_norm_bound(self, tag):
        ic = initial_condition_from_tag(tag)
        xs = np.linspace(-12, 12, 4001)
        assert np.max(np.abs(ic(xs))) <= ic.sup_norm + 1e-12


class TestSimplexQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("rule", ["simplex_map", "chain"])
    def test_volume(self, rule, order):
        # the double-graded rule of simplex_map and the one-sided rule of the
        # chain-pairing engine, both through simplex_from_unit
        t = 1.7
        if rule == "simplex_map":
            pts, w = simplex_map(order, t, points_per_axis=24)
        else:
            U, wq = tensor_rule(*graded_panels(30, 2.5, both_ends=False), order)
            pts, jac = simplex_from_unit(U, t)
            w = wq * jac
        assert w.sum() == pytest.approx(t ** order / math.factorial(order), rel=1e-12)
        assert pts.shape == (w.size, order)
        assert 0.0 < pts.min() and pts.max() < t and np.all(np.diff(pts, axis=1) >= 0.0)

    def test_singular_integrand_vs_adaptive(self):
        # (s2-s1)^{-1/2} (1-s2)^{-1/2} on the unit 2-simplex
        val = simplex_quadrature(2, 1.0, lambda s1, s2: (s2 - s1) ** -0.5 * (1 - s2) ** -0.5,
                                 points_per_axis=36, grading=2.5)
        ref = quad(lambda s2: quad(lambda s1: (s2 - s1) ** -0.5, 0, s2)[0] * (1 - s2) ** -0.5,
                   0, 1, limit=400)[0]
        assert val == pytest.approx(ref, abs=1e-4)

    def test_symmetrization_invariance(self):
        # for a symmetrized integrand, the ordered-simplex integral equals
        # the cube integral divided by n!
        def f(a, b):
            return np.exp(-a) * (b + 0.3) ** 2

        def f_sym(a, b):
            return 0.5 * (f(a, b) + f(b, a))

        simplex_val = simplex_quadrature(2, 1.0, f_sym, points_per_axis=24)
        gx, gw = np.polynomial.legendre.leggauss(40)
        xs, ws = 0.5 * gx + 0.5, 0.5 * gw
        A, B = np.meshgrid(xs, xs, indexing="ij")
        W = np.outer(ws, ws)
        cube_val = float(np.sum(W * f_sym(A, B)))
        assert simplex_val == pytest.approx(cube_val / math.factorial(2), abs=1e-8)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            simplex_quadrature(5, 1.0, lambda *s: np.ones_like(s[0]))

    @pytest.mark.parametrize("args, what", [((0, 1.0), "order"), ((1, 0.0), "horizon"),
                                            ((1, 1.0, 1), "points_per_axis"),
                                            ((1, 1.0, 24, 0.5), "grading"),
                                            ((1, 1.0, 13), "points_per_axis.* 13 would build 12"),
                                            ((1, 1.0, 17), "points_per_axis.* 17 would build 12")])
    def test_rejects_bad_input(self, args, what):
        with pytest.raises(ValueError, match=what):
            simplex_map(*args)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            simplex_quadrature(1, 1.0, lambda s: 1.0 / (s - s))


class TestQuadratureGrid:
    def test_weight_sum_and_monotone_nodes(self, line_grid):
        assert abs(line_grid.weights.sum() - 2 * line_grid.half_width) <= 1e-10
        assert np.all(np.diff(line_grid.nodes) > 0)
