import math

import numpy as np
import pytest

from wickshe.basis import MultiIndex, TruncationSpec, hermite_function_table
from wickshe.coefficients import cs_level_coefficients
from wickshe.kernels import _panel_rule, constant_ic, sine_ic
from wickshe.streams import substream
from wickshe.wiener_kernels import (_ChainContext, _backward_chain, _forward_chain,
                                    cs_kernel, fk_kernel, mw_kernel, sym_cs_kernel)


class TestOrderZeroAndOne:
    def test_order_zero_is_semigroup_mean(self, coeff_quad):
        k0 = mw_kernel(0, 1.0, math.pi / 2, sine_ic(), coeff_quad)
        assert k0() == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_order_one_diagonal_value(self, coeff_quad):
        # F_1(t, x; x) = int_0^t p(s, 0) ds = sqrt(2 t / pi) for constant data
        k1 = mw_kernel(1, 1.0, 0.4, constant_ic(), coeff_quad)
        assert k1(0.4) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-6)

    def test_argument_count_guard(self, coeff_quad):
        k1 = fk_kernel(1, 1.0, 0.0, constant_ic(), coeff_quad)
        with pytest.raises(ValueError, match="order"):
            k1(0.1, 0.2)


class TestSemigroupTail:
    @pytest.mark.parametrize("factor", [0.5, 0.99, 1.01])
    def test_sine_tail_across_tau_res(self, coeff_quad, factor):
        # u_bar(tau, xi) = e^{-tau/2} sin(xi) for sine data, on both sides of
        # the switch to the Taylor block at tau_res
        ctx = _ChainContext(1, 1.0, sine_ic(), coeff_quad)
        tau = factor * coeff_quad.tau_res
        for xi in (1.0, -2.3):
            assert (ctx.quad.row(np.array([tau]), xi) @ ctx.u0_grid)[0] == pytest.approx(
                math.exp(-tau / 2.0) * math.sin(xi), rel=0.0, abs=1e-7)


class TestChainTail:
    @staticmethod
    def per_node_integrand(ctx, gaps, steps, tail_times, tail_point):
        # the integrand at the simplex nodes, one P(tau) row per node
        with np.errstate(divide="ignore", over="ignore"):
            log_vals = -steps[None, :] ** 2 / (2.0 * gaps) - 0.5 * np.log(2 * math.pi * gaps)
        vals = np.exp(np.sum(log_vals, axis=1))
        vals = np.where(np.isfinite(vals), vals, 0.0)
        tail = ctx.quad.row(tail_times, float(tail_point)) @ ctx.u0_grid
        return vals * tail

    @pytest.mark.parametrize("u0_name", ["constant", "sine"])
    @pytest.mark.parametrize("chain, distinct", [(_forward_chain, 12), (_backward_chain, 78)])
    def test_one_row_per_distinct_tail_time(self, coeff_quad, monkeypatch, u0_name, chain,
                                            distinct):
        # at n = 2 the forward chain's 144 nodes have 12 distinct tail times
        # (t - w_2 depends on one axis), the backward chain's 78
        u0 = constant_ic() if u0_name == "constant" else sine_ic()
        ctx = _ChainContext(2, 1.0, u0, coeff_quad)
        integral, row = ctx.integral, coeff_quad.row
        calls, asked = [], []

        def record_integral(*args):
            calls.append(args)
            return integral(*args)

        def record_row(tau, x, deriv=0):
            asked.append(np.size(tau))
            return row(tau, x, deriv)

        monkeypatch.setattr(ctx, "integral", record_integral)
        monkeypatch.setattr(coeff_quad, "row", record_row)
        y = np.array([-0.7, 0.4])
        got = chain(ctx, 0.3, y)
        (args,) = calls
        assert np.unique(args[2]).size == distinct and args[2].size == 144
        assert asked == [distinct]
        monkeypatch.undo()
        integrand = self.per_node_integrand(ctx, *args)
        reference = float(np.dot(ctx.w_weights, integrand))
        assert abs(got - reference) <= 1e-15 * np.max(np.abs(ctx.w_weights * integrand))


class TestEquivalences:
    @pytest.mark.parametrize("u0_name", ["constant", "sine"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_fk_equals_mw_bitwise(self, coeff_quad, u0_name, n):
        u0 = constant_ic() if u0_name == "constant" else sine_ic()
        fk = fk_kernel(n, 1.0, 0.0, u0, coeff_quad)
        mw = mw_kernel(n, 1.0, 0.0, u0, coeff_quad)
        gen = substream(3, "kernel-probes", n)
        for _ in range(5):
            y = gen.uniform(-1.5, 1.5, size=n)
            assert fk(*y) == mw(*y)  # same code path after r = t - s

    @pytest.mark.parametrize("u0_name", ["constant", "sine"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_fk_matches_sym_cs(self, coeff_quad, u0_name, n):
        u0 = constant_ic() if u0_name == "constant" else sine_ic()
        fk = fk_kernel(n, 1.0, 0.0, u0, coeff_quad)
        sym = sym_cs_kernel(n, 1.0, 0.0, u0, coeff_quad)
        grid = np.linspace(-1.0, 1.0, 5)
        probes = [(float(a),) for a in grid] if n == 1 else \
            [(float(a), float(b)) for a in grid for b in grid]
        worst = max(abs(fk(*y) - sym(*y)) for y in probes)
        assert worst <= 1e-3

    @pytest.mark.parametrize("u0_name", ["constant", "sine"])
    def test_order_one_kernel_projects_onto_the_level_coefficients(self, coeff_quad, u0_name):
        # u_{e_m}(t, x) = int f_1(t, x; y) e_m(y) dy: the pointwise kernel
        # (simplex rule and kernel rows) against the level sweep (P(tau)
        # blocks), two computations that share no chain integrand.  The kernel
        # kinks at y = x, so the rule on [-10, 10] puts a panel edge there:
        # 10 panels of 32 Gauss-Legendre nodes a side.  Measured at most
        # 6.2e-8 (constant) and 7.8e-8 (sine) against a largest coefficient
        # of 0.62; a 1% error in the chain integrand moves it by ~6e-3
        u0 = constant_ic() if u0_name == "constant" else sine_ic()
        spec = TruncationSpec(1, 6)
        for t, x in ((1.0, 0.0), (0.5, 0.3)):
            edges = np.concatenate([np.linspace(-10.0, x, 11), np.linspace(x, 10.0, 11)[1:]])
            y, w = _panel_rule(edges, 32)
            fk = fk_kernel(1, t, x, u0, coeff_quad)
            projected = hermite_function_table(6, y) @ (w * np.array([fk(v) for v in y]))
            level = cs_level_coefficients(1, t, x, u0, spec, coeff_quad)
            expected = [level[MultiIndex((0,) * (j - 1) + (1,))] for j in range(1, 7)]
            assert np.max(np.abs(projected - expected)) <= 5e-7, (t, x)

    def test_symmetry_under_permutation(self, coeff_quad):
        fk = fk_kernel(2, 0.7, 0.1, sine_ic(), coeff_quad)
        pairs = [(-0.8, 0.4), (0.0, 1.0), (0.3, 0.3)]
        for (a, b) in pairs:
            assert fk(a, b) == pytest.approx(fk(b, a), abs=1e-10)

    def test_ordered_cs_kernel_is_not_symmetric(self, coeff_quad):
        # the raw chaos kernel orders its arguments; only its symmetrization
        # matches the path kernel
        cs = cs_kernel(2, 1.0, 0.0, sine_ic(), coeff_quad)
        assert abs(cs(-0.8, 0.6) - cs(0.6, -0.8)) > 1e-4

    def test_order_cap(self, coeff_quad):
        with pytest.raises(ValueError, match="cap"):
            fk_kernel(4, 1.0, 0.0, constant_ic(), coeff_quad)
