import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from scipy.integrate import dblquad

from wickshe import coefficients
from wickshe.basis import MultiIndex, TruncationSpec, enumerate_multiindices, hermite_function
from wickshe.coefficients import (KERNEL_CUTOFF, CoefficientQuadrature, _assemble_from_sweep,
                                  _level_sweep, cs_coefficient, cs_level_coefficients,
                                  dx_coefficient, dx_level_coefficients)
from wickshe.kernels import constant_ic, gaussian_bump_ic, heat_kernel, simplex_map, sine_ic

ZERO = MultiIndex(())


class TestCsCoefficient:
    def test_zero_index_constant(self, coeff_quad):
        assert cs_coefficient(ZERO, 1.0, 0.2, constant_ic(), coeff_quad) == pytest.approx(
            1.0, abs=1e-8)

    def test_order_one_vs_adaptive_quadrature(self, coeff_quad):
        # u_(1)(1, 0) = int_0^1 int p(1-s, -y) e_1(y) dy ds, adaptive oracle
        ref = dblquad(lambda y, s: heat_kernel(1.0 - s, -y) * hermite_function(1, y),
                      0.0, 1.0 - 1e-12, -12.0, 12.0, epsabs=1e-9)[0]
        val = cs_coefficient(MultiIndex((1,)), 1.0, 0.0, constant_ic(), coeff_quad)
        assert val == pytest.approx(ref, abs=1e-4)

    def test_order_cap(self, coeff_quad):
        with pytest.raises(ValueError, match="cap"):
            cs_coefficient(MultiIndex((4,)), 1.0, 0.0, constant_ic(), coeff_quad)

    def test_level_sweep_matches_single(self, coeff_quad):
        spec = TruncationSpec(2, 3)
        lvl = cs_level_coefficients(2, 0.8, 0.1, sine_ic(), spec, coeff_quad)
        a = MultiIndex((1, 1))
        single = cs_coefficient(a, 0.8, 0.1, sine_ic(), coeff_quad)
        assert lvl[a] == pytest.approx(single, abs=1e-12)

    def test_rejects_nonpositive_time(self, coeff_quad):
        with pytest.raises(ValueError):
            cs_coefficient(ZERO, 0.0, 0.0, constant_ic(), coeff_quad)


class TestDxCoefficient:
    def test_zero_index_sine(self, coeff_quad):
        # d/dx of e^{-t/2} sin x at (1, 0)
        val = dx_coefficient(ZERO, 1.0, 0.0, sine_ic(), quad=coeff_quad)
        assert val == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_zero_index_constant_vanishes(self, coeff_quad):
        assert dx_coefficient(ZERO, 1.0, 0.3, constant_ic(), quad=coeff_quad) == pytest.approx(
            0.0, abs=1e-10)

    def test_epsilon_sequence_parity_zero(self, coeff_quad):
        # at x = 0 the (1,) coefficient vanishes by parity (odd kernel, even
        # mode); the epsilon sequence and its limit all sit at zero
        vals = [dx_coefficient(MultiIndex((1,)), 1.0, 0.0, constant_ic(), epsilon=e,
                               quad=coeff_quad) for e in (0.2, 0.1, 0.05, 0.0)]
        assert all(abs(v) < 1e-10 for v in vals)

    def test_epsilon_sequence_converges(self, coeff_quad):
        # mode 2 is odd, so the coefficient is non-trivial at x = 0
        a = MultiIndex((0, 1))
        limit = dx_coefficient(a, 1.0, 0.0, constant_ic(), epsilon=0.0, quad=coeff_quad)
        seq = [dx_coefficient(a, 1.0, 0.0, constant_ic(), epsilon=e, quad=coeff_quad)
               for e in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        gaps = [abs(s - limit) for s in seq]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        # the regularized values converge ~ linearly in epsilon; a two-point
        # Richardson step on the finest pair recovers the limit
        extrap = 2 * seq[-1] - seq[-2]
        assert extrap == pytest.approx(limit, abs=1e-3)

    def test_convergence_check_passes(self, coeff_quad, monkeypatch):
        # doubling the time rule to one 24-node panel per axis moves the
        # value by at most 1e-3, relative floored at absolute
        a = MultiIndex((0, 1))
        coarse = dx_coefficient(a, 1.0, 0.0, constant_ic(), quad=coeff_quad)
        monkeypatch.setattr(coefficients, "TIME_POINTS", 24)
        fine = dx_coefficient(a, 1.0, 0.0, constant_ic(), quad=coeff_quad)
        assert coarse != fine
        assert abs(coarse - fine) <= max(1e-3, 1e-3 * abs(fine))

    def test_dx_consistency_with_finite_difference(self, coeff_quad):
        # central difference of the solution coefficient matches the
        # derivative coefficient
        h = 1e-3
        for a in (MultiIndex((1,)), MultiIndex((0, 1)), MultiIndex((1, 1))):
            up = cs_coefficient(a, 1.0, 0.3 + h, constant_ic(), coeff_quad)
            dn = cs_coefficient(a, 1.0, 0.3 - h, constant_ic(), coeff_quad)
            fd = (up - dn) / (2 * h)
            val = dx_coefficient(a, 1.0, 0.3, constant_ic(), quad=coeff_quad)
            assert val == pytest.approx(fd, abs=1e-3)

    def test_epsilon_range_guard(self, coeff_quad):
        with pytest.raises(ValueError, match="epsilon"):
            dx_coefficient(MultiIndex((1,)), 1.0, 0.0, constant_ic(), epsilon=1.5,
                           quad=coeff_quad)


class TestLevelSweeps:
    def test_dx_level_parity_structure(self, coeff_quad):
        # at x = 0 with constant data, K_alpha is non-zero only when the
        # tensor e_{k_1} x ... x e_{k_n} is odd overall
        spec = TruncationSpec(1, 4)
        lvl = dx_level_coefficients(1, 1.0, 0.0, constant_ic(), spec, coeff_quad)
        assert abs(lvl[MultiIndex((1,))]) < 1e-10
        assert abs(lvl[MultiIndex((0, 1))]) > 1e-3
        assert abs(lvl[MultiIndex((0, 0, 1))]) < 1e-10
        assert abs(lvl[MultiIndex((0, 0, 0, 1))]) > 1e-4

    def test_sweep_reaches_P_only_through_kernel_matrix(self, coeff_quad, monkeypatch):
        # the benchmark tracer times P(tau) by wrapping kernel_matrix: each
        # simplex node's u_bar(s_1) and its one chain link must both call it
        calls = []
        inner = CoefficientQuadrature.kernel_matrix

        def counting(self, tau):
            calls.append(tau)
            return inner(self, tau)

        monkeypatch.setattr(CoefficientQuadrature, "kernel_matrix", counting)
        cs_level_coefficients(2, 1.0, 0.0, constant_ic(), TruncationSpec(2, 2), coeff_quad)
        pts, _ = simplex_map(2, 1.0, points_per_axis=coefficients.TIME_POINTS)
        assert len(calls) == 2 * pts.shape[0] == 288

    def test_time_rule_at_the_bump_worst_case(self, coeff_quad, monkeypatch):
        # the Gaussian bump's worst case, dx u at n = 2 and (t, x) = (2, -1):
        # the 12-node time rule against a 48-node one reads 3.0e-6 of max |C|
        def sweep():
            return _level_sweep(2, 2.0, -1.0, gaussian_bump_ic(), 6, coeff_quad, deriv=True)

        coarse = sweep()
        monkeypatch.setattr(coefficients, "TIME_POINTS", 48)
        fine = sweep()
        assert np.max(np.abs(coarse - fine)) <= 1e-5 * np.max(np.abs(fine))

    @pytest.mark.parametrize("x", [12.5, 30.0])
    def test_off_grid_probe_refused_before_any_transfer(self, x, coeff_quad, monkeypatch):
        # the edge panel's interpolant, extrapolated to x, gave rows with
        # entries of 6.5e10 at x = 12.5 and NaN at x = 30 (at tau_res / 2)
        calls = []
        inner = CoefficientQuadrature.kernel_matrix
        monkeypatch.setattr(CoefficientQuadrature, "kernel_matrix",
                            lambda self, tau: calls.append(tau) or inner(self, tau))
        alpha, spec = MultiIndex((1,)), TruncationSpec(2, 2)
        for run in (lambda: cs_coefficient(alpha, 0.5, x, sine_ic(), coeff_quad),
                    lambda: dx_coefficient(alpha, 0.5, x, sine_ic(), quad=coeff_quad),
                    lambda: cs_coefficient(ZERO, 0.5, x, sine_ic(), coeff_quad),
                    lambda: cs_level_coefficients(1, 0.5, x, sine_ic(), spec, coeff_quad),
                    lambda: dx_level_coefficients(2, 0.5, x, sine_ic(), spec, coeff_quad)):
            with pytest.raises(ValueError, match="insufficient"):
                run()
        assert calls == []

    def test_assembly_is_the_full_permutation_sum(self):
        # (alpha!)^{-1/2} times the sum of C over all n! orderings of the
        # characteristic vector, repeated orderings included
        gen = np.random.default_rng(20261019)
        indices = [a for a in enumerate_multiindices(TruncationSpec(3, 3)) if a.degree() >= 1]
        assert len(indices) == 3 + 6 + 10
        for alpha in indices:
            C = gen.standard_normal((3,) * alpha.degree())
            full = sum(C[tuple(m - 1 for m in order)]
                       for order in permutations(alpha.characteristic_vector()))
            ref = full / math.sqrt(alpha.factorial())
            assert _assemble_from_sweep(C, alpha) == pytest.approx(ref, rel=1e-12)


def _dense_panel_diff(quad: CoefficientQuadrature) -> np.ndarray:
    """Block-diagonal Lagrange differentiation on each panel's own nodes."""
    nodes, q = quad.grid.nodes, quad.q
    D = np.zeros((nodes.size, nodes.size))
    for p in range(quad.panels):
        xs = nodes[p * q:(p + 1) * q]
        gap = xs[:, None] - xs[None, :]
        np.fill_diagonal(gap, 1.0)
        bw = 1.0 / gap.prod(axis=1)
        block = bw[None, :] / bw[:, None] / gap
        np.fill_diagonal(block, 0.0)
        np.fill_diagonal(block, -block.sum(axis=1))
        D[p * q:(p + 1) * q, p * q:(p + 1) * q] = block
    return D


def _dense_P(quad: CoefficientQuadrature, tau: float) -> np.ndarray:
    x, w = quad.grid.nodes, quad.grid.weights
    if tau >= quad.tau_res:
        diff = x[:, None] - x[None, :]
        return np.exp(-diff * diff / (2.0 * tau)) / math.sqrt(2 * math.pi * tau) * w[None, :]
    D2 = np.linalg.matrix_power(_dense_panel_diff(quad), 2)
    return np.eye(x.size) + (tau / 2.0) * D2 + (tau * tau / 8.0) * (D2 @ D2)


@pytest.fixture(scope="module")
def small_quad():
    return CoefficientQuadrature(half_width=8.0, panels=8)


class TestHeatOperator:
    @pytest.mark.parametrize("which", ["default", "small"])
    @pytest.mark.parametrize("tau", [0.005, 0.02, 0.5, 1.0])
    def test_apply_matches_dense(self, which, tau, coeff_quad, small_quad):
        quad = coeff_quad if which == "default" else small_quad
        x = quad.grid.nodes
        rng = np.random.default_rng(7)
        V = rng.standard_normal((2, 3, x.size)) * np.exp(-x * x / 8.0)
        ref = V @ _dense_P(quad, tau).T
        got = quad.apply_P(tau, V)
        assert got.shape == V.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        single = quad.apply_P(tau, V[0, 0])
        assert np.abs(single - ref[0, 0]).max() <= 1e-13 * np.abs(ref).max()

    def test_both_branches_exercised(self, coeff_quad, small_quad):
        # tau in {0.005, 0.02} is Taylor on both grids, tau = 0.02 Gaussian on
        # the default one; the small grid's panels are wide (tau_res = 0.16)
        assert 0.005 < coeff_quad.tau_res < 0.02
        assert 0.02 < small_quad.tau_res < 0.5

    @pytest.mark.parametrize("which, tau", [("default", 0.02), ("default", 0.5),
                                            ("default", 4.0), ("small", 0.5)])
    def test_only_blocks_beyond_reach_dropped(self, which, tau, coeff_quad, small_quad):
        # kept: the offsets |d| <= floor(r / width) + 1 with
        # exp(-r^2 / (2 tau)) = 2^-60, less any block that is exactly 0;
        # every dense entry left out is below 2^-60 p(tau, 0) max w
        quad = coeff_quad if which == "default" else small_quad
        q, P = quad.q, quad.panels
        assert KERNEL_CUTOFF == 2.0 ** -60
        reach = math.sqrt(2.0 * tau * 60.0 * math.log(2.0))
        D = min(P - 1, math.floor(reach / quad.width) + 1)
        assert D < P - 1  # the cut is active in every case
        dense = _dense_P(quad, tau)

        def block(d):
            return dense[max(d, 0) * q:(max(d, 0) + 1) * q, max(-d, 0) * q:(max(-d, 0) + 1) * q]

        offsets, blocks = quad.kernel_matrix(tau)
        assert offsets.tolist() == [d for d in range(-D, D + 1) if np.any(block(d) != 0.0)]
        bound = KERNEL_CUTOFF * heat_kernel(tau, 0.0) * quad.grid.weights.max()
        for d in set(range(-(P - 1), P)) - set(offsets.tolist()):
            assert np.abs(block(d)).max() <= bound

    def test_sweep_matches_dense_sweep(self, coeff_quad, monkeypatch):
        # the level sweep against the same sweep on the full dense P(tau), at
        # t = 2 where the kernels reach furthest
        quad = coeff_quad
        x, w = quad.grid.nodes, quad.grid.weights
        half_sq = -0.5 * np.square(x[:, None] - x[None, :])
        D2 = np.linalg.matrix_power(_dense_panel_diff(quad), 2)
        D2sq = D2 @ D2

        def dense(tau):
            # _dense_P with its tau-free parts formed once; entries below the
            # smallest normal double are set to 0, for speed (a product with a
            # subnormal costs about 20 normal ones)
            if tau < quad.tau_res:
                return np.eye(x.size) + (tau / 2.0) * D2 + (tau * tau / 8.0) * D2sq
            out = np.multiply(half_sq, 1.0 / tau)
            np.exp(out, out=out)
            out *= w / math.sqrt(2.0 * math.pi * tau)
            out[out < np.finfo(float).tiny] = 0.0
            return out

        for tau in (0.5 * quad.tau_res, 0.05, 2.0):
            ref = _dense_P(quad, tau)
            assert np.abs(dense(tau) - ref).max() <= 1e-15 * np.abs(ref).max()
        u0 = sine_ic()
        swept = {(n, deriv): _level_sweep(n, 2.0, 0.3, u0, 6, quad, deriv)
                 for n in (1, 2) for deriv in (False, True)}
        # both fields run the same transfers: apply each (tau, V) once
        applied = {}

        def apply_dense(tau, V):
            key = (tau, V.shape, V.tobytes())
            if key not in applied:
                applied[key] = V @ dense(tau).T
            return applied[key]

        monkeypatch.setattr(CoefficientQuadrature, "apply_P",
                            lambda self, tau, V: apply_dense(tau, V))
        for (n, deriv), C in swept.items():
            ref = _level_sweep(n, 2.0, 0.3, u0, 6, quad, deriv)
            assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("deriv", [0, 1])
    @pytest.mark.parametrize("x", [0.0, 0.37, -4.91])
    def test_point_eval_matches_dense_lagrange(self, deriv, x, coeff_quad):
        # point evaluation is the row at tau = 0, where the Taylor block is
        # exactly the identity: x's interpolation weights times D1^deriv
        nodes = coeff_quad.grid.nodes
        v = np.sin(1.3 * nodes) * np.exp(-nodes * nodes / 20.0)
        dv = np.linalg.matrix_power(_dense_panel_diff(coeff_quad), deriv) @ v
        # barycentric Lagrange interpolation on the panel containing x
        p = int((x + coeff_quad.grid.half_width) // (2 * coeff_quad.grid.half_width
                                                      / coeff_quad.panels))
        sl = slice(p * coeff_quad.q, (p + 1) * coeff_quad.q)
        xs = nodes[sl]
        gap = xs[:, None] - xs[None, :]
        np.fill_diagonal(gap, 1.0)
        bw = 1.0 / gap.prod(axis=1)
        lw = bw / (x - xs)
        ref = float(lw @ dv[sl] / lw.sum())
        row = coeff_quad.row(0.0, x, deriv)
        got = float(row @ v)
        # rounding of a deriv-fold differentiation grows as |D|^deriv
        norm_D = np.abs(coeff_quad.D1).sum(axis=1).max()
        tol = 1e-15 * norm_D ** deriv * np.abs(v[sl]).max()
        assert got == pytest.approx(ref, abs=tol)
        rows = np.stack([v, 2.0 * v]) @ row
        np.testing.assert_allclose(rows, [ref, 2.0 * ref], rtol=0.0, atol=2.0 * tol)

    @pytest.mark.parametrize("factor", [0.25, 0.99, 1.01, 50.0])
    def test_row_and_apply_match_closed_form(self, factor, coeff_quad):
        # P(tau) exp(-x^2) = (1 + 2 tau)^{-1/2} exp(-x^2 / (1 + 2 tau)), on both
        # sides of the switch to the Taylor block at tau_res
        tau = factor * coeff_quad.tau_res
        nodes = coeff_quad.grid.nodes
        v = np.exp(-nodes * nodes)
        s = 1.0 + 2.0 * tau
        for x in (0.0, 0.37, -1.3, 2.1):
            exact = math.exp(-x * x / s) / math.sqrt(s)
            assert coeff_quad.row(tau, x) @ v == pytest.approx(exact, abs=1e-5)
            assert coeff_quad.row(tau, x, deriv=1) @ v == pytest.approx(-2.0 * x / s * exact,
                                                                        abs=1e-5)
        np.testing.assert_allclose(coeff_quad.apply_P(tau, v),
                                   np.exp(-nodes * nodes / s) / math.sqrt(s), rtol=0.0, atol=1e-5)

    @pytest.mark.parametrize("x", [12.5, -12.5, 30.0])
    def test_row_refuses_off_grid_x(self, x, coeff_quad):
        for tau in (0.5 * coeff_quad.tau_res, 0.5, np.array([0.5 * coeff_quad.tau_res, 0.5])):
            for deriv in (0, 1):
                with pytest.raises(ValueError, match="off the grid"):
                    coeff_quad.row(tau, x, deriv)
        edge = coeff_quad.grid.half_width
        assert np.all(np.isfinite(coeff_quad.row(0.5 * coeff_quad.tau_res, edge)))

    @pytest.mark.parametrize("deriv", [0, 1])
    def test_row_block_is_rows_per_tau(self, deriv, coeff_quad):
        taus = coeff_quad.tau_res * np.array([50.0, 0.25, 1.01, 0.99])
        rows = coeff_quad.row(taus, 0.37, deriv)
        assert rows.shape == (taus.size, coeff_quad.grid.nodes.size)
        for tau, r in zip(taus, rows):
            np.testing.assert_array_equal(r, coeff_quad.row(tau, 0.37, deriv))

    def test_holds_no_dense_matrix(self, coeff_quad):
        m = coeff_quad.grid.nodes.size
        for value in vars(coeff_quad).values():
            if isinstance(value, np.ndarray):
                assert value.size < m * m

    def test_fine_grid_in_bounded_memory(self):
        # one dense 8192 x 8192 array alone would take 537 MB
        tracemalloc.start()
        try:
            quad = CoefficientQuadrature(panels=512)
            x = quad.grid.nodes
            V = np.stack([np.exp(-x * x), np.sin(x) * np.exp(-x * x / 4.0)])
            for tau in (0.5 * quad.tau_res, 0.5):
                out = quad.apply_P(tau, V)
                assert np.all(np.isfinite(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.size == 8192
        assert peak < 64 * 2 ** 20
        # P(tau) exp(-x^2) = (1 + 2 tau)^{-1/2} exp(-x^2 / (1 + 2 tau))
        assert out[0] == pytest.approx(np.exp(-x * x / 2.0) / math.sqrt(2.0), abs=1e-12)
